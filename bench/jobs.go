package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/events"
	"repro/internal/pws"
	"repro/internal/types"
)

const (
	// jobRate is jobs_open's offered load: with the 40 ms modelled exec a
	// job holds a node for 140 ms, so 8 jobs/s keep 1.1 of six compute
	// nodes busy, about a fifth of capacity. The issue's size was the same
	// rate on four compute nodes, and two runs in ten lost jobs there: the
	// scheduler's utilisation signal (bulletin rows up to seconds old, a
	// node with anything in its run queue counted as full) reads 0.45-0.6
	// at this load, touches the 0.85 pause rung every few seconds and now
	// and then the 0.97 refuse rung, at which batch submits are shed. On
	// six nodes at 16/s it still did; at 8/s it does not.
	jobRate     = 8.0
	jobDuration = 100 * time.Millisecond
	// jobSLOms bounds due time → start notification at two scheduling
	// periods: a start later than that was lost or stalled by the control
	// plane. jobPromptMs is the limit a healthy start meets (two jobs' run
	// time: every fourth job goes to the one-node service pool and may find
	// it busy for one job's 140 ms). The share gated is the first: in about
	// a third of runs the shed ladder touches its pause rung once and holds
	// three to eight jobs for up to a scheduling period, which moves the
	// share of prompt starts by 1-5 % against a bound of 2 %. That share is
	// reported per layer as pws.late_start_share.
	jobSLOms    = 2000.0
	jobPromptMs = 300.0
	// jobTail is the tail percentile gated. A run has 160 jobs; p93.75 (ten
	// samples beyond it) moved by a third between runs of unchanged code and
	// p90 by a half, because about a tenth of acks coincide with a
	// scheduling cycle and take twice as long, which puts both on the edge
	// between the two kinds. p80 sits inside the fast kind.
	jobTail = 0.80
	// pollShare is the length of the status-poll phase that follows the
	// open loop, as a share of it, pollsOutstanding the calls it keeps in
	// flight.
	pollShare        = 0.2
	pollsOutstanding = 8
)

// jobTrack follows one submitted job through the client's eyes.
// Loop-confined.
type jobTrack struct {
	id            types.JobID
	due           time.Time
	ack           time.Time
	acked         bool
	ok            bool
	shed          bool
	starts, ends  int
	start, finish time.Time
	finishB4Start bool
}

// jobsDriver submits jobs through the scheduler client and observes them
// through an event subscription, as a user's submission tool would.
type jobsDriver struct {
	c      *realCluster
	sched  *pws.Client
	events *events.Client

	// Loop-confined: written by callbacks inside the client runtime's loop.
	jobs     []*jobTrack
	byID     map[types.JobID]*jobTrack
	early    map[types.JobID][]types.Event // events that beat their job's ack
	fanoutUs samples                       // Event.When → handler, same process clock
	stray    int
	badPolls int // status polls answered, but not with "completed"
}

func newJobsDriver(c *realCluster, subscribe bool) (*jobsDriver, error) {
	d := &jobsDriver{c: c, byID: make(map[types.JobID]*jobTrack), early: make(map[types.JobID][]types.Event)}
	pwsAddr := c.servers(types.SvcPWS)[0]
	esAddr := c.servers(types.SvcES)[0]
	d.sched = pws.NewClient(c.rtc, c.rpcOpts, func() (types.Addr, bool) { return pwsAddr, true })
	d.events = events.NewClient(c.rtc, c.rpcOpts, func() (types.Addr, bool) { return esAddr, true })
	c.rtc.Attach(func(msg types.Message) {
		if !d.sched.Handle(msg) {
			d.events.Handle(msg)
		}
	})
	err := waitUntil(30*time.Second, "scheduler answering", func() bool {
		_, ok := d.stat()
		return ok
	})
	if err != nil || !subscribe {
		return d, err
	}
	subbed := make(chan uint64, 1)
	c.rtc.Do(func() {
		d.events.Subscribe([]types.EventType{types.EvJobStart, types.EvJobFinish}, -1, "",
			d.onEvent, func(id uint64) { subbed <- id })
	})
	select {
	case id := <-subbed:
		if id == 0 {
			return d, fmt.Errorf("event subscription refused")
		}
	case <-time.After(2 * c.params.RPCTimeout):
		return d, fmt.Errorf("event subscription never acked")
	}
	return d, nil
}

func (d *jobsDriver) stat() (pws.StatAck, bool) {
	type reply struct {
		ack pws.StatAck
		ok  bool
	}
	ch := make(chan reply, 1)
	d.c.rtc.Do(func() { d.sched.Stat(func(a pws.StatAck, ok bool) { ch <- reply{a, ok} }) })
	select {
	case r := <-ch:
		return r.ack, r.ok
	case <-time.After(2 * d.c.params.RPCTimeout):
		return pws.StatAck{}, false
	}
}

func (d *jobsDriver) onEvent(ev types.Event) {
	now := time.Now()
	var id types.JobID
	if _, err := fmt.Sscanf(ev.Detail, "job %d", &id); err != nil {
		d.stray++
		return
	}
	d.fanoutUs = append(d.fanoutUs, float64(now.Sub(ev.When))/1e3)
	jt := d.byID[id]
	if jt == nil {
		ev.When = now // keep the delivery time for the replay
		d.early[id] = append(d.early[id], ev)
		return
	}
	d.apply(jt, ev.Type, now)
}

func (d *jobsDriver) apply(jt *jobTrack, typ types.EventType, at time.Time) {
	switch typ {
	case types.EvJobStart:
		jt.starts++
		jt.start = at
	case types.EvJobFinish:
		if jt.starts == 0 {
			jt.finishB4Start = true
		}
		jt.ends++
		jt.finish = at
	}
}

// submit issues one job inside the loop; due is what its latencies count
// from. tr, when set and idle, stamps the submit call.
func (d *jobsDriver) submit(seq int, due time.Time, tr *tracer) {
	jt := &jobTrack{due: due}
	d.jobs = append(d.jobs, jt)
	pool := "batch"
	if seq%4 == 3 {
		pool = "service"
	}
	job := pws.Job{Pool: pool, Name: fmt.Sprintf("bench-%d", seq), Duration: jobDuration, Width: 1}
	traced := tr != nil && tr.tryBegin("submit")
	d.sched.Submit(job, func(ack pws.SubmitAck) {
		if traced {
			tr.end()
		}
		jt.ack, jt.acked, jt.ok, jt.shed = time.Now(), true, ack.OK, ack.Shed
		if !ack.OK {
			return
		}
		jt.id = ack.ID
		d.byID[ack.ID] = jt
		for _, ev := range d.early[ack.ID] {
			d.apply(jt, ev.Type, ev.When)
		}
		delete(d.early, ack.ID)
	})
}

// openLoop submits one job per due time and returns once every job has
// finished (or a drain deadline passed), with the generator's lateness.
func (d *jobsDriver) openLoop(start time.Time, due []time.Duration, seqBase int, tr *tracer, waitFinish bool) samples {
	first := 0
	d.c.rtc.Do(func() { first = len(d.jobs) })
	late := realPacer().run(start, due, func(i int, dueAt time.Time) {
		d.c.rtc.Do(func() { d.submit(seqBase+i, dueAt, tr) })
	})
	_ = waitUntil(2*d.c.params.RPCTimeout+10*jobDuration, "submitted jobs to finish", func() bool {
		done := true
		d.c.rtc.Do(func() {
			for _, jt := range d.jobs[first:] {
				if !jt.acked || (waitFinish && jt.ok && jt.ends == 0) {
					done = false
					return
				}
			}
		})
		return done
	})
	return late
}

// snapshot copies the tracked jobs from index first on, inside the loop.
func (d *jobsDriver) snapshot(first int) (jobs []jobTrack, fanout samples, stray int) {
	d.c.rtc.Do(func() {
		for _, jt := range d.jobs[first:] {
			jobs = append(jobs, *jt)
		}
		fanout = append(samples(nil), d.fanoutUs...)
		stray = d.stray + len(d.early)
	})
	return jobs, fanout, stray
}

// poll asks the scheduler for one finished job's state, inside the loop,
// as a user's status tool does after submitting. Any answer but
// "completed" is a wrong answer.
func (d *jobsDriver) poll(o op, done func(ok bool)) {
	d.sched.JobStat(o.job, func(ack pws.JobStatAck, ok bool) {
		if ok && ack.State != pws.StateCompleted {
			d.badPolls++
		}
		done(ok)
	})
}

// pollLoop keeps pollsOutstanding status polls of the given finished jobs
// in flight for the window: the control plane's request path (rpc, the gob
// fallback both ways, wire, the scheduler's loop) run hot, which is where
// CPU per call can be read; the open loop of jobs is too thin for that.
func (d *jobsDriver) pollLoop(window time.Duration, seed int64, jobs []jobTrack) []outcome {
	var finished []types.JobID
	for _, jt := range jobs {
		if jt.ok && jt.ends > 0 {
			finished = append(finished, jt.id)
		}
	}
	if len(finished) == 0 { // the open loop failed outright and says so itself
		return nil
	}
	next := func(rng *rand.Rand) op { return op{kind: opJobStat, job: finished[rng.Intn(len(finished))]} }
	return closedLoop(d.c, window, pollsOutstanding, seed, next, d.poll, nil)
}

// jobSchedule draws an open-loop arrival schedule for the window: a
// Poisson process conditioned on its count, so every run submits the same
// number of jobs and per-job figures do not carry the count's own scatter
// (a tenth of the mean at these sizes).
func jobSchedule(seed int64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, int(jobRate*length.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(length)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// jobStats is what a window of jobs looked like to the client.
type jobStats struct {
	ackUs, startUs          samples
	overheadMs              samples // finish − due − Duration − modelled exec
	dispatchMs              samples // ack → start notification
	runOverheadMs           samples // finish − start − Duration − modelled exec
	failed, shed, withinSLO int
	late                    int           // started, but later than jobPromptMs
	span                    time.Duration // first due → last finish
	wrongOrder              int
}

func summariseJobs(jobs []jobTrack, modelledExec time.Duration) jobStats {
	var s jobStats
	if len(jobs) == 0 {
		return s
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].due.Before(jobs[j].due) })
	last := jobs[0].due
	for _, jt := range jobs {
		if jt.shed {
			s.shed++
		}
		if !jt.acked || !jt.ok || jt.starts != 1 || jt.ends != 1 || jt.finishB4Start {
			s.failed++
			if jt.acked && jt.ok && (jt.starts > 1 || jt.ends > 1 || jt.finishB4Start) {
				s.wrongOrder++
			}
			continue
		}
		ackUs, startUs := float64(jt.ack.Sub(jt.due))/1e3, float64(jt.start.Sub(jt.due))/1e3
		s.ackUs, s.startUs = append(s.ackUs, ackUs), append(s.startUs, startUs)
		if startUs <= jobSLOms*1e3 {
			s.withinSLO++
		}
		if startUs > jobPromptMs*1e3 {
			s.late++
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		s.overheadMs = append(s.overheadMs, ms(jt.finish.Sub(jt.due)-jobDuration-modelledExec))
		s.dispatchMs = append(s.dispatchMs, ms(jt.start.Sub(jt.ack)))
		s.runOverheadMs = append(s.runOverheadMs, ms(jt.finish.Sub(jt.start)-jobDuration-modelledExec))
		if jt.finish.After(last) {
			last = jt.finish
		}
	}
	s.span = last.Sub(jobs[0].due)
	return s
}

func bootJobsCluster(seed int64, tr *tracer, subscribe bool) (*realCluster, *jobsDriver, error) {
	c, err := bootCluster(clusterSpec{parts: 2, size: 5, withPWS: true, seed: seed, tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	d, err := newJobsDriver(c, subscribe)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	return c, d, nil
}

// jobsWindow is one measured open-loop stretch of jobs and what the client
// saw of them.
type jobsWindow struct {
	window window
	stats  jobStats
	jobs   []jobTrack
	fanout samples
	stray  int
}

// measuredWindow submits jobs at jobRate for length, waits for them to
// finish and summarises them; like every fault-free window it is measured
// again once if a fault was seen or a job failed.
func (d *jobsDriver) measuredWindow(res *result, cfg runConfig, length time.Duration, seqBase int, modelled time.Duration) jobsWindow {
	due := jobSchedule(cfg.seed+1, length)
	var jw jobsWindow
	runFaultFree(res, func() []window {
		jw.window = measure(d.c, sliceWidth(cfg.seconds), func() ([]outcome, samples) {
			return nil, d.openLoop(time.Now().Add(time.Millisecond), due, seqBase, nil, true)
		})
		jw.jobs, jw.fanout, jw.stray = d.snapshot(seqBase)
		jw.jobs = jw.jobs[len(jw.jobs)-len(due):] // this attempt's, had the window been measured before
		jw.stats = summariseJobs(jw.jobs, modelled)
		jw.window.failed = jw.stats.failed
		return []window{jw.window}
	})
	return jw
}

func runJobsOpen(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceJobsOpen(cfg)
	}
	c, d, err := bootJobsCluster(cfg.seed, nil, true)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	res := newResult()
	res.set("setup_s", time.Since(processStart).Seconds())
	modelled := c.costs.ExecLatency["job"]

	warm := jobSchedule(cfg.seed, warmUp(cfg.seconds))
	d.openLoop(time.Now().Add(time.Millisecond), warm, 0, nil, true)
	jw := d.measuredWindow(res, cfg, dur(cfg.seconds), len(warm), modelled)
	w, s, jobs, late := jw.window, jw.stats, jw.jobs, jw.window.late
	res.set("peak_rss_mb", peakRSSMB()) // the job workload's: the poll phase's garbage moved it by a tenth between runs
	polls := d.measuredPolls(res, cfg, dur(pollShare*cfg.seconds), jobs)

	// Whole-window figures of the open loop, not the quietest slice's:
	// eight jobs a second are too thin to slice, and the scheduler
	// checkpoints its whole state, finished jobs included, before it acks a
	// submit, so the ack gets slower with every job the run has seen and
	// the "quietest" slice would simply be the first.
	tailV, tailP, n := tail(s.ackUs)
	res.set("op_p50_us", median(s.ackUs))
	res.set("op_tail_us", quantile(s.ackUs.sorted(), jobTail))
	res.set("op2_p50_us", median(s.startUs))
	res.set("slo_share", float64(s.withinSLO)/float64(len(jobs)))
	res.set("ops_per_s", float64(len(s.ackUs))/s.span.Seconds())
	// CPU per call is read off the poll phase. The open loop keeps the
	// process a twentieth busy, in bursts of tens of microseconds whose cost
	// is the sandbox's: the idle cluster, doing the same work second after
	// second, was charged 6-15 ms of CPU a second in waves half a minute
	// long, and CPU per job moved with them between runs (by a sixth here,
	// by a quarter on the driver's machine) whatever the window's length or
	// the statistic taken over its slices. It is printed as a diagnostic. The figure is the median
	// slice's, not the leanest one's: CPU per poll climbs by a third over
	// the phase, so the leanest slice is the first, and over sets of twelve
	// runs it moved by 8-12 % where the median slice moved by 5 %.
	rate, cpuPerKop := typical(polls.bounds, polls.points(nil))
	res.set("cpu_ms_per_kop", cpuPerKop)
	res.attempted, res.failed = len(jobs)+len(polls.out), s.failed+polls.failed
	lateTail, _, _ := tail(late)
	res.note("%d jobs at %.0f/s: ack p50 %.0f us p%.1f %.0f us; start p50 %.0f us, slowest %.0f ms; finish overhead p50 %.2f ms beyond %v run + %v modelled exec",
		n, jobRate, median(s.ackUs), 100*tailP, tailV, median(s.startUs), quantile(s.startUs.sorted(), 1)/1e3, median(s.overheadMs), jobDuration, modelled)
	res.note("generator lateness p50 %.1f us, tail %.1f us; open-loop CPU %.2f s, %.0f ms per thousand jobs", median(late), lateTail,
		w.cpu.Seconds(), float64(w.cpu.Microseconds())/float64(len(jobs)))
	res.note("%d status polls in %.2f s with %d outstanding (%.0f/s, median slice %.0f/s), CPU %.2f s",
		len(polls.out), polls.wall.Seconds(), pollsOutstanding, float64(polls.ok())/polls.wall.Seconds(), rate, polls.cpu.Seconds())
	checkJobs(res, d, s, jw.stray)
	d.checkPolls(res, polls)
	return res, nil
}

// measuredPolls runs the status-poll phase over the given finished jobs,
// cut into half-width slices (it is a fifth of the run), and like every
// fault-free window once more if a fault was seen or a poll failed.
func (d *jobsDriver) measuredPolls(res *result, cfg runConfig, length time.Duration, jobs []jobTrack) window {
	return runFaultFree(res, func() []window {
		return []window{measure(d.c, sliceWidth(cfg.seconds)/2, func() ([]outcome, samples) {
			return d.pollLoop(length, cfg.seed+2, jobs), nil
		})}
	})[0]
}

// checkPolls is the poll phase's verdict: every poll answered, and with
// "completed", which every job polled is.
func (d *jobsDriver) checkPolls(res *result, polls window) {
	if polls.failed > 0 {
		res.problem("%d of %d status polls failed", polls.failed, len(polls.out))
	}
	bad := 0
	d.c.rtc.Do(func() { bad = d.badPolls })
	if bad > 0 {
		res.problem("%d status polls of finished jobs did not answer \"completed\"", bad)
	}
}

// checkJobs is the job workload's verdict: every job acked, started once,
// then finished once; none shed at a fifth of capacity; and the scheduler
// itself counts no failed job.
func checkJobs(res *result, d *jobsDriver, s jobStats, stray int) {
	if s.failed > 0 {
		res.problem("%d of %d jobs were refused, lost or never finished (%d shed, %d with a wrong event order)",
			s.failed, res.attempted, s.shed, s.wrongOrder)
	}
	if stray > 0 {
		res.problem("%d job events named no job this client submitted", stray)
	}
	st, ok := d.stat()
	switch {
	case !ok:
		res.problem("scheduler did not answer the final stat")
	case st.Failed != 0 || st.Running != 0 || st.Queued != 0:
		res.problem("scheduler ends with failed=%d running=%d queued=%d", st.Failed, st.Running, st.Queued)
	}
}
