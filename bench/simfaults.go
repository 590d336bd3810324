package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bulletin"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/gsd"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/types"
)

const (
	// simVirtualPerSecond scales the run: every second asked for buys this
	// much virtual time, so the default 20 s run simulates 200 virtual
	// seconds, which take about as many wall seconds as the other
	// workloads' runs on two cores (600 virtual seconds took 70-85 s).
	simVirtualPerSecond = 5
	simBacklog          = 2000
	simQueryEvery       = 200 * time.Millisecond
	simSlice            = 100 * time.Millisecond
)

// simShape is the simulated cluster's size; the tier-1 smoke shrinks it.
type simShape struct{ partitions, size int }

var fullSim = simShape{partitions: 32, size: 16}

// simPlan names who plays which part in the fault script, derived from
// the topology so the same script runs on the 64-node smoke.
type simPlan struct {
	total                                  time.Duration
	killCompute, killServer                types.NodeID // victims of the first two kills
	serverPart                             types.PartitionID
	serverBackup                           types.NodeID
	schedServer                            types.NodeID // partition 0's server: scheduler and meta-group leader
	clientHost                             types.NodeID
	isolated                               []types.PartitionID
	tCompute, tServer, tCut, tHeal, tSched time.Duration
}

func planSim(topo *config.Topology, total time.Duration) simPlan {
	parts := topo.Partitions
	p := simPlan{
		total:        total,
		killCompute:  parts[1].Members[len(parts[1].Members)-1],
		serverPart:   parts[2].ID,
		killServer:   parts[2].Server,
		serverBackup: parts[2].Backups[0],
		schedServer:  parts[0].Server,
		clientHost:   parts[3].Members[len(parts[3].Members)-1],
		tCompute:     total / 6, tServer: total / 3, tCut: total / 2, tSched: 2 * total / 3,
	}
	p.tHeal = p.tCut + total/20
	if n := len(parts); n >= 6 {
		p.isolated = []types.PartitionID{parts[n-2].ID, parts[n-1].ID}
	} else {
		p.isolated = []types.PartitionID{parts[1].ID}
	}
	return p
}

// script renders the plan in the chaos DSL: kill a compute node, kill a
// partition server, cut some partitions off and heal them, kill the node
// hosting the scheduler and the meta-group leader.
func (p simPlan) script(topo *config.Topology) string {
	away := make(map[types.PartitionID]bool)
	for _, id := range p.isolated {
		away[id] = true
	}
	var in, out []string
	for _, part := range topo.Partitions {
		for _, m := range part.Members {
			if away[part.ID] {
				out = append(out, fmt.Sprint(int(m)))
			} else {
				in = append(in, fmt.Sprint(int(m)))
			}
		}
	}
	return fmt.Sprintf("at %v kill node=%d\nat %v kill node=%d\nat %v partition %s|%s\nat %v heal\nat %v kill node=%d\n",
		p.tCompute, p.killCompute, p.tServer, p.killServer,
		p.tCut, strings.Join(in, ","), strings.Join(out, ","), p.tHeal, p.tSched, p.schedServer)
}

// simObserver is what the simulated client process saw: its scheduled
// queries, the scheduler's answers to its stat polls, and the kernel's
// fault events. Everything runs on the simulation goroutine.
type simObserver struct {
	t0 time.Time // virtual time the measured run starts

	queryUs           samples // virtual latency of every answered query
	attempted, failed int
	incomplete        int // answers that missed a partition outside any fault's shadow

	statAt   []time.Duration // virtual offsets of successful stat answers
	drained  time.Duration   // first stat answer with an empty queue (0 = never)
	lastStat pws.StatAck

	events []simEvent
}

type simEvent struct {
	at time.Duration
	ev types.Event
}

func (o *simObserver) first(after time.Duration, match func(types.Event) bool) (time.Duration, bool) {
	for _, e := range o.events {
		if e.at >= after && match(e.ev) {
			return e.at, true
		}
	}
	return 0, false
}

func (o *simObserver) last(after, before time.Duration, match func(types.Event) bool) (time.Duration, bool) {
	var at time.Duration
	found := false
	for _, e := range o.events {
		if e.at >= after && e.at < before && match(e.ev) {
			at, found = e.at, true
		}
	}
	return at, found
}

// simRun is a built simulated cluster with its scheduler, client and
// fault plan.
type simRun struct {
	c      *cluster.Cluster
	plan   simPlan
	obs    *simObserver
	client *core.ClientProc
	sched  *pws.Client
	buildS float64
}

func buildSim(shape simShape, seed int64, total time.Duration) (*simRun, error) {
	log.SetOutput(io.Discard)
	t0 := time.Now()
	c, err := cluster.Build(cluster.Spec{
		Partitions: shape.partitions, PartitionSize: shape.size, NICs: 3,
		Params: config.FastParams(), Seed: seed,
		ExtraServices: map[types.PartitionID][]string{0: {types.SvcPWS}},
	})
	if err != nil {
		return nil, err
	}
	if _, err := pws.Deploy(c, pws.Spec{
		Partition: 0, Pools: pws.UniformPools(c, 4),
		SchedPeriod: c.Spec.Params.LocalCheckPeriod, UseBulletin: true,
	}); err != nil {
		return nil, err
	}
	r := &simRun{c: c, plan: planSim(c.Topo, total), obs: &simObserver{}}
	r.buildS = time.Since(t0).Seconds()
	c.WarmUp()

	// The client is homed on the partition whose server the script kills,
	// so requests due while its access point is dead are counted; it runs
	// on a node no fault touches.
	r.client = core.NewClientProc("bench", r.plan.serverPart, r.plan.killServer)
	r.client.OnStart = func(cp *core.ClientProc) {
		r.sched = pws.NewClient(cp.H, rpc.Budget(c.Spec.Params.RPCTimeout), func() (types.Addr, bool) {
			return types.Addr{Node: c.Kernel.ServerNode(0), Service: types.SvcPWS}, true
		})
	}
	r.client.OnMessage = func(_ *core.ClientProc, msg types.Message) { r.sched.Handle(msg) }
	if _, err := c.Host(r.plan.clientHost).Spawn(r.client); err != nil {
		return nil, err
	}
	c.RunFor(500 * time.Millisecond)
	subscribed := false
	r.client.Events.Subscribe([]types.EventType{
		types.EvNodeSuspect, types.EvNodeFail, types.EvMemberSuspect, types.EvMemberFail,
		types.EvMemberRecover, types.EvServiceRecover,
	}, -1, "", func(ev types.Event) {
		r.obs.events = append(r.obs.events, simEvent{at: r.client.H.Now().Sub(r.obs.t0), ev: ev})
	}, func(id uint64) { subscribed = id != 0 })
	c.RunFor(2 * time.Second)
	if !subscribed {
		return nil, fmt.Errorf("sim client could not subscribe to kernel events")
	}
	if n := simLeaders(c); n != 1 {
		return nil, fmt.Errorf("simulated cluster warmed up with %d meta-group leaders", n)
	}
	return r, nil
}

// gsds returns the GSD running for each partition, and how many there are
// in total (a partition with two is split).
func gsds(c *cluster.Cluster) (map[types.PartitionID]*gsd.Daemon, int) {
	out := make(map[types.PartitionID]*gsd.Daemon)
	n := 0
	for _, h := range c.Hosts {
		if !h.Up() {
			continue
		}
		if g, ok := h.Proc(types.SvcGSD).(*gsd.Daemon); ok && g.Member() != nil {
			out[g.Partition()] = g
			n++
		}
	}
	return out, n
}

func simLeaders(c *cluster.Cluster) int {
	byPart, _ := gsds(c)
	leaders := 0
	for p, g := range byPart {
		if g.Member().View().Leader == p {
			leaders++
		}
	}
	return leaders
}

// partitionDBs returns the freshest bulletin instance per partition (a
// migrated partition can briefly host two).
func partitionDBs(c *cluster.Cluster) map[types.PartitionID]*bulletin.Service {
	out := make(map[types.PartitionID]*bulletin.Service, len(c.Topo.Partitions))
	for _, p := range c.Topo.Partitions {
		for _, m := range p.Members {
			if !c.Hosts[m].Up() {
				continue
			}
			db, ok := c.Hosts[m].Proc(types.SvcDB).(*bulletin.Service)
			if !ok {
				continue
			}
			if cur, exists := out[p.ID]; !exists || db.Stats().MapVersion > cur.Stats().MapVersion {
				out[p.ID] = db
			}
		}
	}
	return out
}

func maxMapVersion(c *cluster.Cluster) uint64 {
	var v uint64
	for _, db := range partitionDBs(c) {
		if mv := db.Stats().MapVersion; mv > v {
			v = mv
		}
	}
	return v
}

// simMeasure is everything the measured stretch of virtual time yields.
type simMeasure struct {
	wall          time.Duration
	cpu           time.Duration
	steps         uint64
	msgs          float64
	gossipMsgs    float64
	mallocs       uint64
	gcP99us       float64
	wallPerVirtS  samples // wall ms per virtual second, one sample per virtual second
	deltaConverge time.Duration
	viewConverge  time.Duration
	viewChanges   uint64
	submitted     int
}

// run submits the backlog, arms the fault script and the client's
// schedule, and advances the engine slice by slice to the end.
func (r *simRun) run(seed int64) simMeasure {
	c, plan, obs := r.c, r.plan, r.obs
	var m simMeasure
	h := r.client.H
	obs.t0 = h.Now()
	rng := rand.New(rand.NewSource(seed))
	pools := 4
	for i := 0; i < simBacklog; i++ {
		d := plan.total/10 + time.Duration(rng.Int63n(int64(plan.total/10)))
		r.sched.Submit(pws.Job{Pool: fmt.Sprintf("pool%d", i%pools), Name: fmt.Sprintf("b%d", i),
			Duration: d, Width: 1}, func(ack pws.SubmitAck) {
			if ack.OK {
				m.submitted++
			}
		})
	}
	sc, err := chaos.Parse(plan.script(c.Topo))
	if err != nil {
		panic(err) // the script is generated above; a parse error is a bug here
	}
	applier := chaos.NewSimApplier(c.Engine, c.Net, func(n types.NodeID) { c.Host(n).PowerOff() })
	applier.Run(sc)
	defer applier.Stop()

	budget := c.Spec.Params.RPCTimeout
	schedule := h.Every(simQueryEvery, func() {
		issued := h.Now()
		at := issued.Sub(obs.t0)
		obs.attempted++
		r.client.Bulletin.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
			if !ok {
				obs.failed++
				return
			}
			obs.queryUs = append(obs.queryUs, float64(h.Now().Sub(issued))/1e3)
			if len(ack.Missing) > 0 && !plan.shadowed(at, budget) {
				obs.incomplete++
			}
		})
		r.sched.Stat(func(ack pws.StatAck, ok bool) {
			if !ok {
				return
			}
			now := h.Now().Sub(obs.t0)
			obs.statAt = append(obs.statAt, now)
			obs.lastStat = ack
			if obs.drained == 0 && ack.Queued == 0 && ack.Completed > 0 {
				obs.drained = now
			}
		})
	})

	gossipMsgs := func() float64 {
		return c.Metrics.Counter("net.msgs."+gossip.MsgDigest).Value() +
			c.Metrics.Counter("net.msgs."+gossip.MsgUpdates).Value()
	}
	msgs0, gsp0, steps0 := c.Metrics.Counter("net.msgs").Value(), gossipMsgs(), c.Engine.Steps()
	v0 := maxMapVersion(c)
	mem := markMem()
	cpu0, wall0 := cpuTime(), time.Now()

	// Delta convergence is sampled once, before the first fault: the next
	// batch partition 0's primary flushes must reach every partition.
	deltaAt := plan.tCompute / 2
	var deltaTarget uint64
	var viewV0 uint64
	perSecond := time.Duration(0)
	sliceWall := time.Now()
	for at := time.Duration(0); at < plan.total; at += simSlice {
		c.RunFor(simSlice)
		now := at + simSlice
		if perSecond += simSlice; perSecond >= time.Second {
			m.wallPerVirtS = append(m.wallPerVirtS, float64(time.Since(sliceWall))/1e6)
			perSecond, sliceWall = 0, time.Now()
		}
		switch {
		case deltaTarget == 0 && now >= deltaAt:
			if db := partitionDBs(c)[0]; db != nil {
				deltaTarget = db.DeltaSeq() + 1
			}
		case deltaTarget != 0 && m.deltaConverge == 0 && now < plan.tCompute:
			if allApplied(c, deltaTarget) {
				m.deltaConverge = now - deltaAt
			}
		}
		// View convergence: after the server kill, every surviving
		// partition's bulletin runs on a newer shard map.
		if viewV0 == 0 && now >= plan.tServer {
			viewV0 = maxMapVersion(c)
		}
		if viewV0 != 0 && m.viewConverge == 0 && now > plan.tServer && now < plan.tCut {
			converged := true
			for _, db := range partitionDBs(c) {
				if db.Stats().MapVersion <= viewV0 {
					converged = false
					break
				}
			}
			if converged {
				m.viewConverge = now - plan.tServer
			}
		}
	}
	m.wall, m.cpu = time.Since(wall0), cpuTime()-cpu0
	m.mallocs, m.gcP99us = mem.since()
	m.steps = c.Engine.Steps() - steps0
	m.msgs = c.Metrics.Counter("net.msgs").Value() - msgs0
	m.gossipMsgs = gossipMsgs() - gsp0
	m.viewChanges = maxMapVersion(c) - v0
	// Let the last scheduled calls finish inside their budget.
	schedule.Stop()
	c.RunFor(budget + time.Second)
	return m
}

// shadowed reports whether a query issued at the given offset may
// legitimately miss a partition: from each fault until its recovery
// budget has passed, a dead or cut-off instance cannot answer.
func (p simPlan) shadowed(at, budget time.Duration) bool {
	grace := p.total / 10
	for _, f := range []struct{ from, to time.Duration }{
		{p.tServer, p.tServer + grace}, {p.tCut - budget, p.tHeal + grace}, {p.tSched, p.tSched + grace},
	} {
		if at >= f.from-budget && at < f.to {
			return true
		}
	}
	return false
}

func allApplied(c *cluster.Cluster, target uint64) bool {
	for p, db := range partitionDBs(c) {
		if p != 0 && db.AppliedSeq(0) < target {
			return false
		}
	}
	return true
}

// outages derives the three kills' recovery times from what the client
// observed: the compute node diagnosed failed (its jobs requeue on that
// event), the dead server's supervised services all answering on its
// backup, and the scheduler answering stat again.
func (r *simRun) outages() (compute, server, sched, detect, takeover time.Duration, ok bool) {
	o, p := r.obs, r.plan
	nodeEv := func(typ types.EventType, n types.NodeID) func(types.Event) bool {
		return func(ev types.Event) bool { return ev.Type == typ && ev.Node == n }
	}
	failAt, ok1 := o.first(p.tCompute, nodeEv(types.EvNodeFail, p.killCompute))
	suspectAt, ok2 := o.first(p.tCompute, nodeEv(types.EvNodeSuspect, p.killCompute))
	svcAt, ok3 := o.last(p.tServer, p.tCut, nodeEv(types.EvServiceRecover, p.serverBackup))
	takeAt, ok4 := o.first(p.tServer, func(ev types.Event) bool { return ev.Type == types.EvMemberRecover })
	var statAt time.Duration
	ok5 := false
	for _, at := range o.statAt {
		// The first answer to a poll issued after the kill.
		if at > p.tSched+simQueryEvery {
			statAt, ok5 = at, true
			break
		}
	}
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return 0, 0, 0, 0, 0, false
	}
	return failAt - p.tCompute, svcAt - p.tServer, statAt - p.tSched,
		suspectAt - p.tCompute, takeAt - p.tServer, true
}

// falseSuspicions counts node suspicions of nodes no fault killed.
func (r *simRun) falseSuspicions() int {
	n := 0
	for _, e := range r.obs.events {
		if e.ev.Type == types.EvNodeSuspect && e.ev.Node != r.plan.killCompute &&
			e.ev.Node != r.plan.killServer && e.ev.Node != r.plan.schedServer {
			n++
		}
	}
	return n
}

func runSimFaults(cfg runConfig) (*result, error) {
	return runSim(cfg, fullSim)
}

func runSim(cfg runConfig, shape simShape) (*result, error) {
	total := dur(cfg.seconds * simVirtualPerSecond)
	r, err := buildSim(shape, cfg.seed, total)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.set("setup_s", time.Since(processStart).Seconds())
	m := r.run(cfg.seed)
	obs := r.obs

	compute, server, sched, detect, takeover, ok := r.outages()
	if !ok {
		res.problem("a kill's recovery was never observed (events seen: %d, stat answers: %d)", len(obs.events), len(obs.statAt))
	}
	outage := (compute + server + sched) / 3
	tailV, tailP, n := tail(obs.queryUs)
	res.set("op_p50_us", median(obs.queryUs))
	res.set("op_tail_us", tailV)
	res.set("op2_p50_us", float64(outage)/1e3)
	res.set("slo_share", float64(len(obs.queryUs))/float64(obs.attempted))
	res.set("ops_per_s", float64(m.steps)/m.wall.Seconds())
	res.set("cpu_ms_per_kop", float64(m.cpu.Microseconds())/float64(m.steps))
	res.set("peak_rss_mb", peakRSSMB())
	res.attempted, res.failed = obs.attempted, obs.failed
	res.note("%d nodes, %v virtual in %.2f s wall: %d engine steps, %.0f messages",
		r.c.Topo.NumNodes(), total, m.wall.Seconds(), m.steps, m.msgs)
	res.note("%d scheduled cluster queries: virtual p50 %.0f us, p%.2f %.0f us, %d unanswered within %v",
		n, median(obs.queryUs), 100*tailP, tailV, obs.failed, r.c.Spec.Params.RPCTimeout)
	if len(m.wallPerVirtS) > 0 {
		res.note("wall ms per virtual second: first %.0f, then by tenths of the run %s", m.wallPerVirtS[0], tenths(m.wallPerVirtS[1:]))
	}
	res.note("virtual outages: compute node %v, partition server %v, scheduler host %v (mean %v)",
		compute, server, sched, outage)
	r.check(res, m)

	if cfg.trace {
		simLayers(res, r, m, detect, takeover)
		// No codec mix: the simulated fabric hands payloads over by value
		// and encodes nothing (it does size them, see the README).
		microLadder(res, cfg, nil, shape.partitions)
	}
	return res, nil
}

// check is the simulated run's verdict: one meta-group leader, a GSD for
// every partition, every backlog job in exactly one state, every query
// answered. Two things the unchanged tree does not always deliver are
// reported as layer metrics instead of failing the run: GSD instances left
// over beside a partition's current one after the cut heals, and answers
// that miss a partition long after every fault has been recovered.
func (r *simRun) check(res *result, m simMeasure) {
	byPart, _ := gsds(r.c)
	if n := simLeaders(r.c); n != 1 {
		res.problem("run ends with %d meta-group leaders", n)
	}
	if len(byPart) != len(r.c.Topo.Partitions) {
		res.problem("run ends with a GSD for %d of %d partitions", len(byPart), len(r.c.Topo.Partitions))
	}
	st := r.obs.lastStat
	if sum := st.Completed + st.Queued + st.Running + st.Failed + st.TimedOut + st.Deleted; m.submitted != simBacklog || sum != simBacklog {
		res.problem("%d of %d backlog jobs acked; scheduler accounts for %d (completed %d queued %d running %d failed %d timed-out %d deleted %d)",
			m.submitted, simBacklog, sum, st.Completed, st.Queued, st.Running, st.Failed, st.TimedOut, st.Deleted)
	}
	if r.obs.failed > 0 {
		res.problem("%d of %d scheduled queries went unanswered", r.obs.failed, r.obs.attempted)
	}
}

// tenths renders the mean of each tenth of a series.
func tenths(s samples) string {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "%.0f ", mean(s[i*len(s)/10:(i+1)*len(s)/10]))
	}
	return strings.TrimSpace(sb.String())
}
