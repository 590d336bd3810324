package main

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/codec"
	"repro/internal/events"
	"repro/internal/federation"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/types"
	"repro/internal/wire"
)

// The micro ladder measures each layer alone through its exported API, on
// inputs shaped like the workload's own traffic. Each rung adds one layer
// to the one below (codec → wire echo → rpc echo), so the difference
// between two rungs is the upper layer's cost.

// codecPair is one request/reply exchange of a workload's mix.
type codecPair struct {
	weight     float64
	req, reply types.Message
}

func msg(typ string, payload any) types.Message {
	return types.Message{
		From: types.Addr{Node: 4, Service: "bench"}, To: types.Addr{Node: 0, Service: types.SvcDB},
		NIC: types.AnyNIC, Type: typ, Payload: payload, Sent: time.Unix(1_700_000_000, 12345),
	}
}

func sampleRes(n types.NodeID) types.ResourceStats {
	return types.ResourceStats{Node: n, CPUPct: 37.5, MemPct: 52.25, SwapPct: 1.5,
		DiskIOBps: 1.5e6, NetIOBps: 2.5e6, Collected: time.Unix(1_700_000_000, 67890)}
}

func sampleSnapshots(parts, rows int) []bulletin.Snapshot {
	out := make([]bulletin.Snapshot, parts)
	for p := range out {
		out[p].Partition = types.PartitionID(p)
		for r := 0; r < rows; r++ {
			out[p].Res = append(out[p].Res, sampleRes(types.NodeID(p*rows+r)))
		}
	}
	return out
}

func getPair(w float64) codecPair {
	return codecPair{w, msg(bulletin.MsgGet, bulletin.GetReq{Token: 77, Node: 2, MapVersion: 3}),
		msg(bulletin.MsgGetAck, bulletin.GetAck{Token: 77, Res: sampleRes(2), Found: true, Primary: true, MapVersion: 3})}
}

func queryPair(w float64, scope bulletin.Scope, parts int) codecPair {
	return codecPair{w, msg(bulletin.MsgQuery, bulletin.QueryReq{Token: 78, Scope: scope, MapVersion: 3}),
		msg(bulletin.MsgResult, bulletin.QueryAck{Token: 78, Snapshots: sampleSnapshots(parts, 2)})}
}

// readCodecMix is read_closed's traffic: 60 % get, 30 % partition query,
// 10 % cluster query on the four-node cluster.
func readCodecMix() []codecPair {
	return []codecPair{getPair(0.6), queryPair(0.3, bulletin.ScopePartition, 1), queryPair(0.1, bulletin.ScopeCluster, 2)}
}

// mixedCodecMix is mixed_open's: 70 % get, 30 % acked put.
func mixedCodecMix() []codecPair {
	return []codecPair{getPair(0.7), {0.3,
		msg(bulletin.MsgPut, bulletin.PutReq{Token: 79, Kind: "res", Res: sampleRes(1001), MapVersion: 3}),
		msg(bulletin.MsgPutAck, bulletin.PutAck{Token: 79, MapVersion: 3})}}
}

// jobsCodecMix is jobs_open's client-facing traffic: one submit exchange,
// and the two event deliveries every job causes, which are replies with no
// request of their own.
func jobsCodecMix() []codecPair {
	ev := func(t types.EventType, detail string) codecPair {
		return codecPair{weight: 1, reply: msg(events.MsgEvent, events.EventMsg{SubID: 1, Event: types.Event{
			Type: t, Detail: detail, When: time.Unix(1_700_000_000, 1), Seq: 9}})}
	}
	return []codecPair{
		{1, msg(pws.MsgSubmit, pws.SubmitReq{Token: 80, Job: pws.Job{Pool: "batch", Name: "bench-17", Duration: 100 * time.Millisecond, Width: 1}}),
			msg(pws.MsgSubmitAck, pws.SubmitAck{Token: 80, OK: true, ID: 17})},
		ev(types.EvJobStart, "job 17 width 1 pool batch"), ev(types.EvJobFinish, "job 17"),
	}
}

// perOp times f in batches of about a millisecond until budget is spent
// and returns the median batch's nanoseconds per call: the sandbox stalls
// the process for up to hundreds of milliseconds now and then, and a mean
// over the budget would charge a stall to whatever was being timed.
func perOp(budget time.Duration, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= time.Millisecond/2 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var batches samples
	for end := time.Now().Add(budget); time.Now().Before(end) || len(batches) < 3; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// codecLadder times the codec on a workload's mix. Request figures are
// means over the mix's requests, reply figures over its replies; bytes and
// allocations are per request issued, replies without one (events)
// included; gob_share is the share of all messages on the gob fallback.
func codecLadder(res *result, mix []codecPair, each time.Duration) {
	if len(mix) == 0 {
		return
	}
	var reqW, repW, reqEnc, reqDec, repEnc, repDec, allocs, bytes, gob float64
	buf := make([]byte, 0, 64<<10)
	var sinkMsg types.Message // keeps decode results alive
	for _, p := range mix {
		for i, m := range []types.Message{p.req, p.reply} {
			if m.Type == "" {
				continue
			}
			m := m
			enc, err := codec.AppendMessage(buf[:0], m)
			if err != nil {
				res.problem("codec ladder: encode %s: %v", m.Type, err)
				return
			}
			body := append([]byte(nil), enc...)
			if _, err := codec.DecodeMessage(body); err != nil {
				res.problem("codec ladder: decode %s: %v", m.Type, err)
				return
			}
			encNs := perOp(each, func() { buf, _ = codec.AppendMessage(buf[:0], m) })
			decNs := perOp(each, func() { sinkMsg, _ = codec.DecodeMessage(body) })
			allocs += p.weight * testing.AllocsPerRun(200, func() {
				buf, _ = codec.AppendMessage(buf[:0], m)
				sinkMsg, _ = codec.DecodeMessage(body)
			})
			res.note("codec %-14s %5d B  encode %7.0f ns  decode %7.0f ns", m.Type, len(body), encNs, decNs)
			bytes += p.weight * float64(len(body))
			if binary.BigEndian.Uint16(body) == 1 { // payload wire ID 1: the gob fallback
				gob += p.weight
			}
			if i == 0 {
				reqW, reqEnc, reqDec = reqW+p.weight, reqEnc+p.weight*encNs, reqDec+p.weight*decNs
			} else {
				repW, repEnc, repDec = repW+p.weight, repEnc+p.weight*encNs, repDec+p.weight*decNs
			}
		}
	}
	res.set("codec.req_encode_ns", reqEnc/reqW)
	res.set("codec.req_decode_ns", reqDec/reqW)
	res.set("codec.reply_encode_ns", repEnc/repW)
	res.set("codec.reply_decode_ns", repDec/repW)
	res.set("codec.allocs_per_roundtrip", allocs/reqW)
	res.set("codec.bytes_per_roundtrip", bytes/reqW)
	res.set("codec.gob_share", gob/(reqW+repW))
	runtime.KeepAlive(sinkMsg)
}

// echoPair is two bare transports on loopback, b echoing whatever it gets.
type echoPair struct {
	a, b *wire.Transport
}

const echoService = "echo"

func newEchoPair() (*echoPair, error) {
	book := wire.NewBook()
	var trs [2]*wire.Transport
	for i := range trs {
		tr, err := wire.New(types.NodeID(i), nil, wire.WithPlanes(1), wire.WithMetrics(metrics.NewRegistry()))
		if err != nil {
			closeAll(trs[:])
			return nil, err
		}
		trs[i] = tr
		if err := book.Add(tr.Node(), 0, tr.Endpoints()[0]); err != nil {
			closeAll(trs[:])
			return nil, err
		}
	}
	for _, tr := range trs {
		tr.SetBook(book)
	}
	p := &echoPair{a: trs[0], b: trs[1]}
	p.b.Register(types.Addr{Node: 1, Service: echoService}, func(m types.Message) {
		_ = p.b.Send(types.Message{From: m.To, To: m.From, NIC: 0, Type: m.Type, Payload: m.Payload})
	})
	return p, nil
}

func (p *echoPair) close() { p.a.Close(); p.b.Close() }

// wireLadder measures the transport alone: a heartbeat-sized binary
// message echoed between two bare transports, no rpc, no kernel.
func wireLadder(res *result, window time.Duration) {
	p, err := newEchoPair()
	if err != nil {
		res.problem("wire ladder: %v", err)
		return
	}
	defer p.close()
	self := types.Addr{Node: 0, Service: "cli"}
	back := make(chan struct{}, 8) // sized to the deepest loop below
	p.a.Register(self, func(types.Message) { back <- struct{}{} })
	var sendNs samples
	send := func() {
		t0 := time.Now()
		_ = p.a.Send(types.Message{From: self, To: types.Addr{Node: 1, Service: echoService},
			NIC: 0, Type: bulletin.MsgGet, Payload: bulletin.GetReq{Token: 1, Node: 2, MapVersion: 3}})
		sendNs = append(sendNs, float64(time.Since(t0).Nanoseconds()))
	}
	loop := func(window time.Duration, outstanding int) (rttUs samples, n int) {
		end := time.Now().Add(window)
		for i := 0; i < outstanding; i++ {
			send()
		}
		for inflight, t0 := outstanding, time.Now(); inflight > 0; {
			<-back
			n++
			if outstanding == 1 {
				rttUs = append(rttUs, float64(time.Since(t0))/1e3)
				t0 = time.Now()
			}
			if time.Now().Before(end) {
				send()
			} else {
				inflight--
			}
		}
		return rttUs, n
	}
	loop(window/5, 1)
	sendNs = sendNs[:0]
	rtt, _ := loop(window, 1)
	res.set("wire.echo_rtt_p50_us", median(rtt))
	res.set("wire.send_call_ns", median(sendNs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	_, n := loop(window, 8)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	res.set("wire.echo_sat_msgs_s", float64(n)/wall.Seconds())
	// One echo is two messages on the wire; sendNs grows by one float per
	// echo and is the ladder's own, not the transport's.
	res.set("wire.allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/float64(2*n))
}

// rpcLadder adds the resilient caller on a wire runtime to the echo: its
// round trip minus the bare transport's is the loop, caller and timer cost.
func rpcLadder(res *result, window time.Duration) {
	p, err := newEchoPair()
	if err != nil {
		res.problem("rpc ladder: %v", err)
		return
	}
	defer p.close()
	rtc := wire.NewRuntime(p.a, "cli", 1)
	defer rtc.Close()
	caller := rpc.NewCaller(rtc, rpc.Options{})
	rtc.Attach(func(m types.Message) {
		if req, ok := m.Payload.(bulletin.GetReq); ok {
			caller.ResolveFrom(req.Token, m.From, req)
		}
	})
	target := []types.Addr{{Node: 1, Service: echoService}}
	done := make(chan time.Time, 1)
	var rtt, goNs samples
	end := time.Now().Add(window)
	for i := 0; time.Now().Before(end); i++ {
		t0 := time.Now()
		rtc.Do(func() {
			g0 := time.Now()
			caller.Go(rpc.Call{
				Targets: func() []types.Addr { return target },
				Send: func(token uint64, to types.Addr) {
					rtc.Send(to, 0, bulletin.MsgGet, bulletin.GetReq{Token: token, Node: 2, MapVersion: 3})
				},
				Done: func(any, error) { done <- time.Now() },
			})
			goNs = append(goNs, float64(time.Since(g0).Nanoseconds()))
		})
		t5 := <-done
		if i >= 200 { // the first calls warm the lane
			rtt = append(rtt, float64(t5.Sub(t0))/1e3)
		}
	}
	res.set("rpc.echo_rtt_p50_us", median(rtt))
	res.set("rpc.go_call_ns", median(goNs))
}

func fedView(parts int) federation.View {
	v := federation.View{Version: 2, Entries: make(map[types.PartitionID]federation.Entry, parts)}
	for p := 0; p < parts; p++ {
		v.Entries[types.PartitionID(p)] = federation.Entry{Node: types.NodeID(16 * p), Alive: true}
	}
	return v
}

// shardLadder times the shard map: owner lookup for the workload's keys on
// a map of the workload's size, and deriving the map from a view.
func shardLadder(res *result, parts int, each time.Duration) {
	const replicas, vnodes = 2, 64 // config.DefaultParams' bulletin settings
	var sinkAddrs []types.Addr     // keeps lookup results alive
	m := shard.FromView(fedView(parts), replicas, vnodes)
	m.OwnerAddrs(shard.NodeKey(0), types.SvcDB) // builds the ring once, as a live map has
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = shard.NodeKey(types.NodeID(i))
	}
	i := 0
	res.set("shard.owner_lookup_ns", perOp(each, func() {
		sinkAddrs = m.OwnerAddrs(keys[i%len(keys)], types.SvcDB)
		i++
	}))
	fromView := func(parts int) float64 {
		v := fedView(parts)
		return perOp(each, func() {
			nm := shard.FromView(v, replicas, vnodes)
			sinkAddrs = nm.OwnerAddrs(keys[0], types.SvcDB)
		}) / 1e3
	}
	res.set("shard.fromview_us_2p", fromView(2))
	res.set("shard.fromview_us_32p", fromView(32))
	runtime.KeepAlive(sinkAddrs)
}

// gossipLadder times one anti-entropy exchange between two engines at 32
// partitions with 8 deltas per source: digest, the updates it draws, and
// applying them.
func gossipLadder(res *result) {
	const parts, deltas, rounds = 32, 8, 100
	view := fedView(parts)
	full := gossip.NewEngine(gossip.Config{Part: 0, Fanout: 3, Interval: time.Second, Seed: 1})
	full.SetView(view)
	payload := make([]byte, 256)
	for src := 0; src < parts; src++ {
		for seq := uint64(1); seq <= deltas; seq++ {
			full.AddDelta(types.PartitionID(src), seq, payload)
		}
	}
	var us samples
	for r := 0; r < rounds; r++ {
		fresh := gossip.NewEngine(gossip.Config{Part: 1, Fanout: 3, Interval: time.Second, Seed: int64(r) + 2})
		fresh.SetView(view)
		t0 := time.Now()
		ups, has, _ := full.HandleDigest(fresh.Digest(), false)
		if has {
			fresh.HandleUpdates(ups)
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if fresh.SeqKnown(parts-1) != deltas {
			res.problem("gossip ladder: exchange left the fresh engine behind")
			return
		}
	}
	res.set("gossip.exchange_us", median(us))
}

// machineReference times one fixed pure-CPU computation, deriving a
// 32-partition shard map from a view, and returns microseconds per call.
// It measures the machine, not the product's hot paths: the sandbox's speed
// drifts by 30-50 % over tens of minutes, and a run's own reference says
// which stretch it was taken in.
func machineReference() float64 {
	v := fedView(32)
	return perOp(50*time.Millisecond, func() {
		m := shard.FromView(v, 2, 64)
		m.OwnerAddrs("n0", types.SvcDB)
	}) / 1e3
}

// microLadder runs the rungs a traced run reports: the pure-CPU ones
// always, the socket ones only where the workload uses sockets.
func microLadder(res *result, cfg runConfig, mix []codecPair, parts int) {
	// Sized for the full run; a shortened run shortens every rung alike.
	scale := minf(1, cfg.seconds/20)
	each := dur(0.04 * scale)
	codecLadder(res, mix, each)
	shardLadder(res, parts, each)
	gossipLadder(res)
	if cfg.workload != "sim_faults" {
		wireLadder(res, dur(scale))
		rpcLadder(res, dur(1.2*scale))
	}
}
