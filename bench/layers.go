package main

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"time"
)

// This file holds the traced runs: what `--trace 1` executes for each
// workload. A traced run measures the layers, never the end-to-end
// metrics: it boots the workload's cluster without filters and reads each
// layer's counters over shortened windows, then boots it again with the
// datagram-stamping filters and cuts one-outstanding calls into the five
// stage spans, then climbs the micro ladder.

// merge folds windows into one: outcomes concatenated, costs summed, the
// counter baselines spanning first to last.
func merge(ws ...window) window {
	m := ws[0]
	for _, w := range ws[1:] {
		m.out = append(m.out, w.out...)
		m.late = append(m.late, w.late...)
		m.wall += w.wall
		m.cpu += w.cpu
		m.mallocs += w.mallocs
		if w.gcP99us > m.gcP99us {
			m.gcP99us = w.gcP99us
		}
		m.to = w.to
	}
	return m
}

// idleCPU charges the booted, unloaded cluster's CPU to its nodes.
func idleCPU(res *result, c *realCluster, seconds float64) {
	idle := dur(minf(2, seconds/10))
	cpu0 := cpuTime()
	time.Sleep(idle)
	perNodeSecond := float64(cpuTime()-cpu0) / 1e6 / float64(len(c.nodes)) / idle.Seconds()
	res.set("noded.idle_cpu_ms_per_node_s", perNodeSecond)
}

// clusterLayers reports what the wire, rpc, shard, bulletin and runtime
// layers did per operation over a window of a real-socket workload.
func clusterLayers(res *result, c *realCluster, w window, ops int) {
	if ops == 0 {
		return
	}
	n, kn := float64(ops), float64(ops)/1000
	a, b := w.from, w.to
	res.set("wire.datagrams_per_op", float64(b.wire.TxDatagrams-a.wire.TxDatagrams)/n)
	res.set("wire.bytes_per_op", float64(b.wire.TxBytes-a.wire.TxBytes)/n)
	res.set("wire.standalone_acks_per_op", float64(b.wire.TxAcks-a.wire.TxAcks)/n)
	res.set("wire.retransmits_per_kop", float64(b.wire.Retransmits-a.wire.Retransmits)/kn)
	res.set("wire.window_stalls_per_kop", (b.windowStalls-a.windowStalls)/kn)
	if msgs := b.wire.TxMsgs - a.wire.TxMsgs; msgs > 0 {
		res.set("wire.batched_frame_share", (b.batched-a.batched)/float64(msgs))
	}
	res.set("wire.drops", float64(b.wire.Errors-a.wire.Errors))

	res.set("rpc.retries_per_kop", float64(b.rpcClient.Retries-a.rpcClient.Retries)/kn)
	res.set("rpc.shed", float64(b.rpcShed-a.rpcShed))
	res.set("rpc.breaker_opens", float64(b.breakersOpen))
	res.set("shard.map_versions", float64(b.mapVersions-a.mapVersions))
	res.set("gsd.view_changes", float64(b.shard.MapChanges-a.shard.MapChanges))
	res.set("heartbeat.false_suspicions", float64(b.suspects-a.suspects)) // no node dies here: every suspicion is false

	if q := float64(b.shard.CacheHits - a.shard.CacheHits + b.shard.CacheMisses - a.shard.CacheMisses); q > 0 {
		res.set("bulletin.cache_hit_ratio", float64(b.shard.CacheHits-a.shard.CacheHits)/q)
	}
	res.set("runtime.allocs_per_op", float64(w.mallocs)/n)
	res.set("runtime.gc_pause_p99_us", w.gcP99us)
	res.set("noded.goroutines", float64(runtime.NumGoroutine()))
}

// bulletinReadLayers adds what only keyed reads show: a get the servers
// answered more often than the client asked was rerouted or escalated from
// a replica that missed.
func bulletinReadLayers(res *result, d *bulletinDriver, w window) {
	gets := 0
	for _, o := range w.out {
		if o.op.kind == opGet {
			gets++
		}
	}
	if gets == 0 {
		return
	}
	served := float64(w.to.shard.GetsServed - w.from.shard.GetsServed)
	refused := float64(w.to.shard.WrongShard - w.from.shard.WrongShard)
	res.set("bulletin.replica_miss_per_kop", maxf(0, served-float64(gets))/float64(gets)*1000)
	res.set("rpc.rejects_per_kop", (refused+maxf(0, served-float64(gets)))/float64(len(w.out))*1000)
	var stale samples
	reads := 0
	d.c.rtc.Do(func() { stale, reads = append(samples(nil), d.staleUs...), d.syntReads })
	if reads > 0 {
		res.set("bulletin.stale_read_share", float64(len(stale))/float64(reads))
		res.set("bulletin.staleness_p50_ms", median(stale)/1e3)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// stageLayers reports a traced loop: the five stage medians (the serve
// span under the serving package's name), how far they are from adding up
// to the traced end-to-end median, and what tracing cost against the same
// loop on the unfiltered cluster.
func stageLayers(res *result, cfg runConfig, tr *tracer, serve string, tracedP50, untracedP50 float64) {
	b := tr.budget()
	if tracedP50 == 0 { // an open loop has no slices of its own: the budget's median stands in
		tracedP50 = b.E2E
	}
	res.set("rpc.send_path_us", b.Stage[0])
	res.set("wire.loopback_fwd_us", b.Stage[1])
	res.set(serve+".serve_path_us", b.Stage[2])
	res.set("wire.loopback_rev_us", b.Stage[3])
	res.set("rpc.recv_path_us", b.Stage[4])
	res.set("bench.budget_error_pct", b.ErrorPct)
	res.set("bench.traced_calls", float64(b.Calls))
	if untracedP50 > 0 {
		res.set("bench.trace_overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
	}
	res.note("stage budget over %d calls (%d incomplete): send %.1f + fwd %.1f + serve %.1f + rev %.1f + recv %.1f us vs traced p50 %.1f us (error %.1f%%)",
		b.Calls, b.Incomplete, b.Stage[0], b.Stage[1], b.Stage[2], b.Stage[3], b.Stage[4], b.E2E, b.ErrorPct)
	res.note("quietest-slice p50 of the same loop: traced %.1f us, on the unfiltered cluster %.1f us", tracedP50, untracedP50)
	if b.Calls == 0 {
		res.problem("the traced loop stamped no complete call")
	} else if b.ErrorPct > 10 {
		res.problem("stage medians are %.1f%% off the traced end-to-end median", b.ErrorPct)
	}
	path := filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")
	if err := tr.write(path, cfg.workload); err != nil {
		res.note("trace not written: %v", err)
	}
}

// quietLoop runs a one-outstanding closed loop for the given share of the
// run and returns its quietest slice's median latency.
func quietLoop(c *realCluster, d *bulletinDriver, cfg runConfig, share float64, next func(*rand.Rand) op, tr *tracer) float64 {
	w := measure(c, sliceWidth(cfg.seconds), func() ([]outcome, samples) {
		return d.closedLoop(dur(share*cfg.seconds), 1, cfg.seed+3, next, tr), nil
	})
	return quietest(w.bounds, w.points(nil), 0.5)
}

// tracedBulletinLoop boots the bulletin cluster with the stamping filters,
// runs the one-outstanding loop on it and reports its stage budget against
// the same loop's median on the unfiltered cluster.
func tracedBulletinLoop(res *result, cfg runConfig, next func(*rand.Rand) op, synthetic bool, untraced float64) error {
	tr := &tracer{}
	c, d, err := bootBulletinCluster(cfg.seed, tr)
	if err != nil {
		return err
	}
	defer c.stop()
	if synthetic {
		if err := seedSyntheticKeys(c, d); err != nil {
			return err
		}
	}
	d.closedLoop(warmUp(cfg.seconds)/2, 1, cfg.seed, next, nil)
	traced := quietLoop(c, d, cfg, 0.3, next, tr)
	stageLayers(res, cfg, tr, "bulletin", traced, untraced)
	return nil
}

func traceReadClosed(cfg runConfig) (*result, error) {
	res := newResult()
	c, d, err := bootBulletinCluster(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	idleCPU(res, c, cfg.seconds)
	mix := readMix(c.topo.NumNodes())
	d.closedLoop(warmUp(cfg.seconds), 1, cfg.seed, mix, nil)
	w := merge(runFaultFree(res, func() []window {
		return []window{
			measure(c, sliceWidth(cfg.seconds), func() ([]outcome, samples) {
				return d.closedLoop(dur(0.25*cfg.seconds), 1, cfg.seed+1, mix, nil), nil
			}),
			measure(c, sliceWidth(cfg.seconds), func() ([]outcome, samples) {
				return d.closedLoop(dur(0.15*cfg.seconds), 8, cfg.seed+2, mix, nil), nil
			}),
		}
	})...)
	clusterLayers(res, c, w, w.ok())
	bulletinReadLayers(res, d, w)
	untraced := quietLoop(c, d, cfg, 0.15, mix, nil)
	res.attempted, res.failed = len(w.out), len(w.out)-w.ok()
	checkBulletin(res, d)
	c.stop()

	if err := tracedBulletinLoop(res, cfg, mix, false, untraced); err != nil {
		return nil, err
	}

	microLadder(res, cfg, readCodecMix(), 2)
	return res, nil
}

func traceMixedOpen(cfg runConfig) (*result, error) {
	res := newResult()
	c, d, err := bootBulletinCluster(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	if err := seedSyntheticKeys(c, d); err != nil {
		c.stop()
		return nil, err
	}
	idleCPU(res, c, cfg.seconds)
	openWindow(c, d, cfg.seed, warmUp(cfg.seconds), sliceWidth(cfg.seconds))
	w := runFaultFree(res, func() []window {
		return []window{openWindow(c, d, cfg.seed+1, dur(0.4*cfg.seconds), sliceWidth(cfg.seconds))}
	})[0]
	clusterLayers(res, c, w, w.ok())
	bulletinReadLayers(res, d, w)
	lateTail, _, _ := tail(w.late)
	res.set("bench.gen_late_p99_us", lateTail)
	untraced := quietLoop(c, d, cfg, 0.15, writeOnly, nil)
	res.attempted, res.failed = len(w.out), len(w.out)-w.ok()
	checkBulletin(res, d)
	c.stop()

	// The write path's budget: one outstanding acked write at a time.
	if err := tracedBulletinLoop(res, cfg, writeOnly, true, untraced); err != nil {
		return nil, err
	}

	microLadder(res, cfg, mixedCodecMix(), 2)
	return res, nil
}

func traceJobsOpen(cfg runConfig) (*result, error) {
	res := newResult()
	c, d, err := bootJobsCluster(cfg.seed, nil, true)
	if err != nil {
		return nil, err
	}
	modelled := c.costs.ExecLatency["job"]
	idleCPU(res, c, cfg.seconds)
	warm := jobSchedule(cfg.seed, warmUp(cfg.seconds))
	d.openLoop(time.Now().Add(time.Millisecond), warm, 0, nil, true)
	jw := d.measuredWindow(res, cfg, dur(0.5*cfg.seconds), len(warm), modelled)
	w, s, jobs := jw.window, jw.stats, jw.jobs
	clusterLayers(res, c, w, len(jobs))
	lateTail, _, _ := tail(w.late)
	res.set("bench.gen_late_p99_us", lateTail)
	res.set("events.fanout_p50_us", median(jw.fanout))
	res.set("pws.dispatch_p50_ms", median(s.dispatchMs))
	res.set("pws.finish_overhead_p50_ms", median(s.overheadMs))
	res.set("ppm.run_overhead_p50_ms", median(s.runOverheadMs))
	res.set("pws.shed_share", float64(s.shed)/float64(len(jobs)))
	res.set("pws.late_start_share", float64(s.late)/float64(len(jobs)))
	// What the open loop's CPU comes to per job: too unsteady in this
	// sandbox to gate (see runJobsOpen), kept here for the reader.
	res.set("pws.cpu_ms_per_kjob", float64(w.cpu.Microseconds())/float64(len(jobs)))
	polls := d.measuredPolls(res, cfg, dur(pollShare*cfg.seconds), jobs)
	pollRate, _ := typical(polls.bounds, polls.points(nil))
	res.set("pws.poll_sat_ops_s", pollRate)
	res.attempted, res.failed = len(jobs)+len(polls.out), s.failed+polls.failed
	checkJobs(res, d, s, jw.stray)
	d.checkPolls(res, polls)
	untracedAck := median(s.ackUs)
	c.stop()

	// The submit path's budget. No event subscription on this cluster: job
	// events share the scheduler node's lane to the client and would be
	// mistaken for acks. A submit is stamped only while no other is open.
	tr := &tracer{}
	c, d, err = bootJobsCluster(cfg.seed, tr, false)
	if err != nil {
		return nil, err
	}
	d.openLoop(time.Now().Add(time.Millisecond), warm, 0, nil, false)
	d.openLoop(time.Now().Add(time.Millisecond), jobSchedule(cfg.seed+2, dur(0.4*cfg.seconds)), len(warm), tr, false)
	time.Sleep(3 * (jobDuration + modelled)) // let the last jobs run out before the nodes stop
	c.stop()
	stageLayers(res, cfg, tr, "pws", 0, untracedAck)

	microLadder(res, cfg, jobsCodecMix(), 2)
	return res, nil
}

// simLayers reports what the simulated run says about the layers only it
// exercises at scale: gossip, failure detection, takeover, the scheduler's
// backlog and the simulator itself.
func simLayers(res *result, r *simRun, m simMeasure, detect, takeover time.Duration) {
	params := r.c.Spec.Params
	res.set("gossip.msgs_per_round", m.gossipMsgs/(r.plan.total.Seconds()/params.GossipInterval.Seconds()))
	res.set("gossip.delta_converge_ms", float64(m.deltaConverge)/1e6)
	res.set("gossip.view_converge_s", m.viewConverge.Seconds())
	res.set("heartbeat.detect_s", detect.Seconds())
	res.set("heartbeat.false_suspicions", float64(r.falseSuspicions()))
	res.set("gsd.takeover_s", takeover.Seconds())
	res.set("gsd.view_changes", float64(m.viewChanges))
	_, instances := gsds(r.c)
	res.set("gsd.surplus_instances", float64(instances-len(r.c.Topo.Partitions)))
	res.set("bulletin.incomplete_query_share", float64(r.obs.incomplete)/float64(r.obs.attempted))
	res.set("shard.map_versions", float64(m.viewChanges))
	res.set("sim.msgs_per_wall_s", m.msgs/m.wall.Seconds())
	res.set("sim.allocs_per_step", float64(m.mallocs)/float64(m.steps))
	res.set("sim.build_s", r.buildS)
	res.set("runtime.gc_pause_p99_us", m.gcP99us)

	// The backlog's drain rate: jobs leaving the queue per virtual second
	// until it first stood empty (or the run ended).
	obs := r.obs
	drained, left := obs.drained, 0
	if drained == 0 {
		drained, left = r.plan.total, obs.lastStat.Queued
	}
	res.set("pws.sim_jobs_per_vs", float64(simBacklog-left)/drained.Seconds())
	ratio := 0.0 // no drained stretch to compare with: the backlog outlived the run
	if cut := int(drained.Seconds()); cut > 0 && cut < len(m.wallPerVirtS) {
		if after := mean(m.wallPerVirtS[cut:]); after > 0 {
			ratio = mean(m.wallPerVirtS[:cut]) / after
		}
	}
	res.set("pws.backlog_wall_ratio", ratio)
	res.note("backlog drained at %v virtual; delta converge %v, view converge %v, detect %v, takeover %v",
		obs.drained, m.deltaConverge, m.viewConverge, detect, takeover)
}
