package pws

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"sort"
	"time"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/config"
	"repro/internal/events"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// PoolType distinguishes the two scheduling regimes a pool can host.
type PoolType string

const (
	// PoolBatch (the zero value) runs finite jobs to completion; batch
	// pools are what the shed ladder sacrifices under overload.
	PoolBatch PoolType = ""
	// PoolService runs long-lived request servers with declared SLOs.
	// Service pools dispatch first, may borrow nodes from lendable pools
	// even while the lender has a backlog, and are never shed.
	PoolService PoolType = "service"
)

// PoolSpec describes one scheduling pool.
type PoolSpec struct {
	Name       string
	Nodes      []types.NodeID
	Policy     Policy
	AllowLease bool // pool may lend idle nodes to overloaded pools
	Type       PoolType
}

func (p *PoolSpec) service() bool { return p.Type == PoolService }

// TypeName renders the pool's regime for stat surfaces.
func (p *PoolSpec) TypeName() string {
	if p.service() {
		return "service"
	}
	return "batch"
}

// Shed ladder rungs, in escalation order. Each rung includes the ones
// below it: at shedRefuse the scheduler also pauses batch dispatch and
// preempts.
const (
	shedNone    = 0 // normal dispatch
	shedPause   = 1 // hold new batch dispatch
	shedPreempt = 2 // also requeue the lowest-priority running batch job
	shedRefuse  = 3 // also refuse batch submits at admission
)

// ShedNames maps ladder rungs to their stat-surface names.
var ShedNames = [...]string{"none", "pause", "preempt", "refuse"}

func shedName(level int) string {
	if level < 0 || level >= len(ShedNames) {
		return "unknown"
	}
	return ShedNames[level]
}

// shedAt holds each rung's cluster utilisation threshold. Service pools
// are never shed.
var shedAt = [...]float64{shedPause: 0.85, shedPreempt: 0.92, shedRefuse: 0.97}

const (
	// hysteresis is how far below a rung's threshold the utilisation must
	// fall before the ladder steps down one level, so a cluster hovering
	// on a threshold does not flap between shedding and dispatching.
	hysteresis = 0.15
	// jobRequeueBudget bounds how many times one job is requeued after
	// slice crashes or dispatch failures before it is quarantined in the
	// terminal failed state.
	jobRequeueBudget = 3
)

// Overload configures the scheduler's overload machinery beyond its fixed
// ladder: how long a service pool keeps a borrowed node (zero derives
// DefaultParams' delay). The ladder runs when the spec has a service pool
// (a mixed-regime scheduler must protect its service traffic); the
// requeue budget applies either way.
type Overload struct {
	LeaseReturnDelay time.Duration
}

// OverloadFromParams lifts the kernel parameters' overload knobs.
func OverloadFromParams(p config.Params) Overload {
	return Overload{LeaseReturnDelay: p.LeaseReturnDelay}
}

// Spec configures the PWS scheduler daemon.
type Spec struct {
	Partition   types.PartitionID // home partition (kernel access point)
	Pools       []PoolSpec
	SchedPeriod time.Duration
	// UseBulletin makes the periodic refresh fetch cluster-wide resource
	// state through the bulletin federation (one query instead of PBS's
	// per-node polling) and prefer the least-loaded free nodes.
	UseBulletin bool
	// Restart restores queues and running state from the checkpoint
	// service before scheduling (the HA path).
	Restart bool
	// CkptTimeout bounds checkpoint interactions.
	CkptTimeout time.Duration
	// RPC carries the node-wide resilient-call options (shared breakers,
	// metrics); the scheduler fills per-client budgets.
	RPC rpc.Options
	// Overload tunes the shed ladder and the poison-job budget.
	Overload Overload
}

// retainedLease records a node a service pool keeps after its borrowing
// job finished: the lease outlives the job until the cluster has been
// cool for the configured return delay (hysteresis on lease return).
type retainedLease struct {
	From    string // lending pool
	By      string // retaining (service) pool
	FreedAt time.Time
}

// state is the checkpointed scheduler state.
type state struct {
	NextID    types.JobID
	NextSeq   uint64
	NextGen   uint64
	Queues    map[string][]Job
	Running   map[types.JobID]*RunJob
	Completed int
	Requeued  int
	Deleted   int
	TimedOut  int
	// Outcomes records final states of finished jobs for job queries:
	// one code per job ID, job i at index i-1 (IDs are dense from 1).
	Outcomes []outcome

	// Failed counts poison jobs quarantined in StateFailed; Attempts
	// tracks each live job's consumed requeue budget and FailReasons the
	// terminal diagnosis.
	Failed      int
	Attempts    map[types.JobID]int
	FailReasons map[types.JobID]string
	// Draining marks nodes an operator took out of placement.
	Draining map[types.NodeID]bool
	// Retained holds leases that outlive their borrowing job (see
	// retainedLease).
	Retained map[types.NodeID]retainedLease
	// Shed is the ladder's current rung; persisted so a migrated
	// scheduler resumes shedding instead of re-admitting a flood.
	Shed int
	// Cumulative overload counters (survive migration like the rest of
	// the stats).
	ShedTotal        uint64
	AdmissionRejects uint64
	Preempted        uint64
}

// outcome is a job's final state as one byte; 0 is "not finished".
type outcome uint8

// finalStates maps each nonzero outcome code to its state.
var finalStates = [...]JobState{1: StateCompleted, 2: StateDeleted, 3: StateTimeout, 4: StateFailed}

// finish records id's final state.
func (st *state) finish(id types.JobID, final JobState) {
	if n := int(id) - len(st.Outcomes); n > 0 {
		st.Outcomes = append(st.Outcomes, make([]outcome, n)...)
	}
	st.Outcomes[id-1] = outcome(slices.Index(finalStates[:], final))
}

// final returns id's final state, if it has finished.
func (st *state) final(id types.JobID) (JobState, bool) {
	if id < 1 || id > types.JobID(len(st.Outcomes)) {
		return "", false
	}
	code := int(st.Outcomes[id-1])
	if code == 0 || code >= len(finalStates) {
		return "", false
	}
	return finalStates[code], true
}

// RunJob tracks one dispatched job.
type RunJob struct {
	Job   Job
	Nodes []types.NodeID
	// Remaining counts slices still running.
	Remaining int
	// LeasedFrom maps borrowed nodes to their lending pool.
	LeasedFrom map[types.NodeID]string
	// StartedAt stamps dispatch time (walltime enforcement).
	StartedAt time.Time
	// Gen identifies this dispatch incarnation; PPM done-notifications
	// echo it, so exits of killed older incarnations are discarded.
	Gen uint64
}

// queuedAck is a submit ack held until a save containing its job is sent.
type queuedAck struct {
	to  types.Addr
	ack SubmitAck
}

// noNode marks requeues with no failed node (preemption, drain).
const noNode = types.NodeID(-1)

// Scheduler is the PWS daemon. It is supervised by its partition's GSD
// like a kernel service ("the scheduling service group ... is created on
// the basis of group service with high availability guaranteed").
type Scheduler struct {
	spec Spec
	h    *simhost.Handle
	// shedding runs the shed ladder: on when the spec has a service pool.
	shedding bool

	caller   *rpc.Caller // PPM load/kill/query calls
	events   *events.Client
	bulletin *bulletin.Client
	ckpt     *checkpoint.Client
	gauge    *rpc.Gauge // cluster-utilisation backpressure signal

	st   state
	busy map[types.NodeID]types.JobID
	down map[types.NodeID]bool
	// quarantined nodes stay members but take no new slices until the
	// kernel's flap score decays (running slices finish; nothing is
	// requeued on quarantine, unlike failure).
	quarantined map[types.NodeID]bool
	// cooling marks nodes with an in-flight slice kill: placement waits
	// for the kill ack so a fresh load cannot race the kill on the node
	// (arriving first, it would be refused — or worse, be the one killed).
	cooling map[types.NodeID]bool
	loads   map[types.NodeID]float64 // CPU load from the last bulletin query
	utils   map[types.NodeID]float64 // folded utilisation from the last query
	// leasedTo maps a lent-out node to the pool borrowing it (live job or
	// retained lease); home maps every pool node to its owning pool.
	leasedTo map[types.NodeID]string
	home     map[types.NodeID]string

	// lastUtil is the cluster utilisation computed on the latest pass;
	// pendingService is the service width that could not be placed there.
	lastUtil       float64
	pendingService int

	// Group commit (see checkpointState): one save in flight at most,
	// changes since the last one sent, and the submit acks they hold back.
	saving, dirty bool
	acks          []queuedAck
	// saveLen is the last save's length, encodeState's size hint.
	saveLen int

	// BulletinQueries counts federation queries issued (the traffic
	// comparison of §5.4).
	BulletinQueries uint64
	// EventsSeen counts real-time notifications received.
	EventsSeen uint64
}

// New builds a scheduler.
func New(spec Spec) *Scheduler {
	if spec.SchedPeriod == 0 {
		spec.SchedPeriod = time.Second
	}
	if spec.CkptTimeout == 0 {
		spec.CkptTimeout = 2 * time.Second
	}
	if spec.Overload.LeaseReturnDelay <= 0 {
		spec.Overload.LeaseReturnDelay = config.DefaultParams().LeaseReturnDelay
	}
	s := &Scheduler{
		spec:        spec,
		busy:        make(map[types.NodeID]types.JobID),
		down:        make(map[types.NodeID]bool),
		quarantined: make(map[types.NodeID]bool),
		cooling:     make(map[types.NodeID]bool),
		loads:       make(map[types.NodeID]float64),
		utils:       make(map[types.NodeID]float64),
		leasedTo:    make(map[types.NodeID]string),
		home:        make(map[types.NodeID]string),
		st: state{
			NextID:      1,
			Queues:      make(map[string][]Job),
			Running:     make(map[types.JobID]*RunJob),
			Attempts:    make(map[types.JobID]int),
			FailReasons: make(map[types.JobID]string),
			Draining:    make(map[types.NodeID]bool),
			Retained:    make(map[types.NodeID]retainedLease),
		},
	}
	for _, p := range spec.Pools {
		if p.service() {
			s.shedding = true
		}
		s.st.Queues[p.Name] = nil
		for _, n := range p.Nodes {
			s.home[n] = p.Name
		}
	}
	return s
}

func (s *Scheduler) ckptOwner() string { return fmt.Sprintf("pws/%d", s.spec.Partition) }

// Service implements simhost.Process.
func (s *Scheduler) Service() string { return types.SvcPWS }

// Start implements simhost.Process.
func (s *Scheduler) Start(h *simhost.Handle) {
	s.h = h
	// The caller shares the node's pressure gauge (or owns a private
	// one): the scheduler writes the cluster utilisation into it each
	// pass, and its sheddable traffic (the reconcile audits) backs off
	// beyond the refuse threshold along with everything else on the node
	// wired to the gauge.
	callerOpts := s.spec.RPC
	if callerOpts.Pressure == nil {
		callerOpts.Pressure = rpc.NewGauge()
	}
	s.gauge = callerOpts.Pressure
	if s.shedding {
		callerOpts.ShedAt = shedAt[shedRefuse]
	}
	s.caller = rpc.NewCaller(h, callerOpts.WithBudget(3*time.Second))
	local := func(svc string) func() (types.Addr, bool) {
		return func() (types.Addr, bool) {
			return types.Addr{Node: h.Node(), Service: svc}, true
		}
	}
	s.events = events.NewClient(h, s.spec.RPC.WithBudget(2*time.Second), local(types.SvcES))
	s.bulletin = bulletin.NewClient(h, s.spec.RPC.WithBudget(2*time.Second), local(types.SvcDB))
	s.ckpt = checkpoint.NewClient(h, s.spec.RPC.WithBudget(s.spec.CkptTimeout), local(types.SvcCkpt))

	// Event-driven monitoring: node failures requeue affected jobs,
	// recoveries return capacity.
	s.events.Subscribe([]types.EventType{types.EvNodeFail, types.EvNodeRecover,
		types.EvNodeQuarantine, types.EvNodeStable},
		-1, "", s.onEvent, nil)

	if s.spec.Restart {
		s.tryRestore(3)
	} else {
		s.h.Send(types.Addr{Node: h.Node(), Service: types.SvcGSD}, types.AnyNIC,
			events.MsgReady, events.ReadyMsg{Service: types.SvcPWS})
	}
	h.Every(s.spec.SchedPeriod, s.refresh)
	h.Every(5*s.spec.SchedPeriod, s.reconcile)
}

func (s *Scheduler) tryRestore(attempts int) {
	s.ckpt.Restore(s.ckptOwner(), func(data []byte, found bool) {
		if found {
			if st, err := decodeState(data); err != nil {
				log.Printf("pws: %s: restore of a %d-byte checkpoint failed, starting empty: %v", s.ckptOwner(), len(data), err)
			} else {
				s.st = st
				s.restoreMaps()
				// Rebuild the busy and lease maps from running jobs; their
				// PPM done-notifications were addressed to the previous
				// incarnation, so the reconcile loop adopts them.
				for id, rj := range s.st.Running {
					for _, n := range rj.Nodes {
						s.busy[n] = id
					}
					for n := range rj.LeasedFrom {
						s.leasedTo[n] = rj.Job.Pool
					}
				}
				for n, r := range s.st.Retained {
					s.leasedTo[n] = r.By
				}
			}
		} else if attempts > 1 {
			s.h.After(200*time.Millisecond, func() { s.tryRestore(attempts - 1) })
			return
		}
		s.h.Send(types.Addr{Node: s.h.Node(), Service: types.SvcGSD}, types.AnyNIC,
			events.MsgReady, events.ReadyMsg{Service: types.SvcPWS})
		s.reconcile()
	})
}

// restoreMaps re-initialises the map fields a checkpoint decodes as nil:
// empty ones, and ones an older state layout lacks.
func (s *Scheduler) restoreMaps() {
	s.st.Running = orMake(s.st.Running)
	s.st.Attempts = orMake(s.st.Attempts)
	s.st.FailReasons = orMake(s.st.FailReasons)
	s.st.Draining = orMake(s.st.Draining)
	s.st.Retained = orMake(s.st.Retained)
}

func orMake[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return make(M)
	}
	return m
}

// OnStop implements simhost.Process.
func (s *Scheduler) OnStop() {}

// Receive implements simhost.Process.
func (s *Scheduler) Receive(msg types.Message) {
	if s.events.Handle(msg) || s.bulletin.Handle(msg) || s.ckpt.Handle(msg) || s.caller.Handle(msg) {
		return
	}
	switch msg.Type {
	case MsgSubmit:
		req, ok := msg.Payload.(SubmitReq)
		if !ok {
			return
		}
		s.submit(msg.From, req)
	case MsgStat:
		req, ok := msg.Payload.(StatReq)
		if !ok {
			return
		}
		s.h.Send(msg.From, types.AnyNIC, MsgStatAck, s.stat(req.Token))
	case MsgDelete:
		req, ok := msg.Payload.(DeleteReq)
		if !ok {
			return
		}
		ack := DeleteAck{Token: req.Token}
		if err := s.deleteJob(req.ID, StateDeleted); err != nil {
			ack.Err = err.Error()
		} else {
			ack.OK = true
		}
		s.h.Send(msg.From, types.AnyNIC, MsgDeleteAck, ack)
	case MsgJobStat:
		req, ok := msg.Payload.(JobStatReq)
		if !ok {
			return
		}
		s.h.Send(msg.From, types.AnyNIC, MsgJobStatAck, s.jobStat(req))
	case MsgDrain:
		req, ok := msg.Payload.(DrainAdminReq)
		if !ok {
			return
		}
		s.drain(msg.From, req)
	case ppm.MsgJobDone:
		if jd, ok := msg.Payload.(ppm.JobDone); ok {
			s.sliceDone(jd.Job, jd.Node, jd.Normal, jd.Gen)
		}
	}
}

func (s *Scheduler) submit(from types.Addr, req SubmitReq) {
	for _, q := range s.acks {
		if q.to == from && q.ack.Token == req.Token {
			return // a retry of a submit whose ack waits for the next save
		}
	}
	job := req.Job
	pool := s.poolByName(job.Pool)
	if pool == nil {
		s.h.Send(from, types.AnyNIC, MsgSubmitAck, SubmitAck{
			Token: req.Token, Err: fmt.Sprintf("pws: unknown pool %q", job.Pool),
		})
		return
	}
	// Admission control, the refuse rung: batch work is turned away while
	// the cluster is overloaded. Service submits are never refused — the
	// service path must stay open exactly when the cluster is hottest.
	if s.shedding && !pool.service() && s.st.Shed >= shedRefuse {
		s.st.AdmissionRejects++
		s.st.ShedTotal++
		s.h.Send(from, types.AnyNIC, MsgSubmitAck, SubmitAck{
			Token: req.Token, Shed: true,
			Err: fmt.Sprintf("pws: admission refused: cluster overloaded (util %.2f)", s.lastUtil),
		})
		return
	}
	if job.Width <= 0 {
		job.Width = 1
	}
	if job.ID == 0 {
		job.ID = s.st.NextID
		s.st.NextID++
	}
	job.Seq = s.st.NextSeq
	s.st.NextSeq++
	s.st.Queues[job.Pool] = append(s.st.Queues[job.Pool], job)
	s.acks = append(s.acks, queuedAck{from, SubmitAck{Token: req.Token, OK: true, ID: job.ID}})
	s.checkpointState()
	s.schedule()
}

func (s *Scheduler) poolByName(name string) *PoolSpec {
	for i := range s.spec.Pools {
		if s.spec.Pools[i].Name == name {
			return &s.spec.Pools[i]
		}
	}
	return nil
}

// nodeFree reports whether a node can take a slice right now.
func (s *Scheduler) nodeFree(n types.NodeID) bool {
	if s.down[n] || s.quarantined[n] || s.st.Draining[n] || s.cooling[n] {
		return false
	}
	_, taken := s.busy[n]
	return !taken
}

// freeNodesOf lists a pool's idle, healthy nodes: its own members that
// are not lent away, plus foreign nodes it holds retained leases on.
func (s *Scheduler) freeNodesOf(p *PoolSpec) []types.NodeID {
	var out []types.NodeID
	for _, n := range p.Nodes {
		if !s.nodeFree(n) {
			continue
		}
		if to, leased := s.leasedTo[n]; leased && to != p.Name {
			continue
		}
		out = append(out, n)
	}
	for n, to := range s.leasedTo {
		if to != p.Name || s.home[n] == p.Name || !s.nodeFree(n) {
			continue
		}
		out = append(out, n)
	}
	// Prefer the least-loaded nodes when bulletin data is available.
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := s.loads[out[i]], s.loads[out[j]]
		if li != lj {
			return li < lj
		}
		return out[i] < out[j]
	})
	return out
}

// schedulable counts the nodes any pool could place on right now or once
// their slice finishes — the denominator of the cluster utilisation.
func (s *Scheduler) schedulable() int {
	count := 0
	for n := range s.home {
		if s.down[n] || s.quarantined[n] || s.st.Draining[n] {
			continue
		}
		count++
	}
	return count
}

// clusterUtil folds per-node utilisation over the schedulable nodes: a
// node busy with a slice counts 1, otherwise its bulletin-reported
// utilisation (CPU and runqueue, see types.ResourceStats.Util) counts.
func (s *Scheduler) clusterUtil() float64 {
	var sum float64
	count := 0
	// In node order: a map-ordered float sum can differ between runs.
	for _, n := range sortedKeys(s.home) {
		if s.down[n] || s.quarantined[n] || s.st.Draining[n] {
			continue
		}
		count++
		if _, taken := s.busy[n]; taken {
			sum++
			continue
		}
		u := s.utils[n]
		if u > 1 {
			u = 1
		}
		if u > 0 {
			sum += u
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// batchBacklog sums the queued width of every batch pool.
func (s *Scheduler) batchBacklog() int {
	total := 0
	for i := range s.spec.Pools {
		pool := &s.spec.Pools[i]
		if pool.service() {
			continue
		}
		for _, job := range s.st.Queues[pool.Name] {
			w := job.Width
			if w <= 0 {
				w = 1
			}
			total += w
		}
	}
	return total
}

// updateShed recomputes the utilisation signal and moves the shed ladder.
// Escalation is immediate; de-escalation is one rung per pass and only
// once the utilisation clears the current rung's threshold by the
// hysteresis margin, so a cluster hovering on a threshold does not flap.
func (s *Scheduler) updateShed() {
	util := s.clusterUtil()
	s.lastUtil = util
	s.gauge.Set(util)
	if !s.shedding {
		return
	}
	backlog := s.batchBacklog()
	sched := s.schedulable()
	target := shedNone
	if util >= shedAt[shedPause] {
		target = shedPause
	}
	if util >= shedAt[shedPreempt] && (s.pendingService > 0 || (sched > 0 && backlog >= sched)) {
		target = shedPreempt
	}
	if util >= shedAt[shedRefuse] && sched > 0 && backlog >= sched {
		target = shedRefuse
	}
	switch {
	case target > s.st.Shed:
		s.st.Shed = target
		s.events.Publish(types.Event{Type: types.EvConfigChange, Partition: s.spec.Partition,
			Detail: fmt.Sprintf("pws shed ladder -> %s (util %.2f)", shedName(target), util)})
	case target < s.st.Shed && util <= shedAt[s.st.Shed]-hysteresis:
		s.st.Shed--
		s.events.Publish(types.Event{Type: types.EvConfigChange, Partition: s.spec.Partition,
			Detail: fmt.Sprintf("pws shed ladder -> %s (util %.2f)", shedName(s.st.Shed), util)})
	}
}

// sweepRetained returns retained leases to their lenders once the
// cluster has stayed cool for the return delay; while it stays hot, the
// clock restarts each pass (hysteresis on lease return).
func (s *Scheduler) sweepRetained() {
	if len(s.st.Retained) == 0 {
		return
	}
	if s.lastUtil >= shedAt[shedPause]-hysteresis {
		for n, r := range s.st.Retained {
			r.FreedAt = s.h.Now()
			s.st.Retained[n] = r
		}
		return
	}
	changed := false
	for n, r := range s.st.Retained {
		if s.h.Now().Sub(r.FreedAt) < s.spec.Overload.LeaseReturnDelay {
			continue
		}
		delete(s.st.Retained, n)
		delete(s.leasedTo, n)
		changed = true
	}
	if changed {
		s.checkpointState()
	}
}

// refresh is the periodic pass: it re-sends a state a failed save left
// dirty, refreshes the cached loads with one cluster-wide bulletin query,
// then schedules. Every trigger schedules at once on the cached loads.
func (s *Scheduler) refresh() {
	if s.dirty {
		s.checkpointState()
	}
	if !s.spec.UseBulletin {
		s.schedule()
		return
	}
	s.BulletinQueries++
	s.bulletin.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
		if !ok {
			return
		}
		for _, snap := range ack.Snapshots {
			for _, r := range snap.Res {
				s.loads[r.Node] = r.CPUPct
				s.utils[r.Node] = r.Util()
			}
		}
		s.schedule()
	})
}

// schedule is one scheduling pass: move the shed ladder and dispatch per
// pool, leasing idle nodes from other pools when a job needs more width
// than its pool owns free.
func (s *Scheduler) schedule() {
	s.updateShed()
	s.sweepRetained()
	s.dispatchAll()
}

func (s *Scheduler) dispatchAll() {
	changed := false
	// Service pools dispatch first: their demand is never shed, and the
	// capacity the ladder frees must land on them, not on queued batch.
	for i := range s.spec.Pools {
		if pool := &s.spec.Pools[i]; pool.service() {
			changed = s.dispatchPool(pool) || changed
		}
	}
	// The preempt rung evicts batch only when there is service demand the
	// freed node can serve; with no service waiting, preemption would be
	// pure churn (the requeued job could not dispatch anyway while the
	// ladder holds batch).
	if s.shedding && s.st.Shed >= shedPreempt && s.pendingService > 0 {
		changed = s.preemptOne() || changed
	}
	paused := s.shedding && s.st.Shed >= shedPause
	for i := range s.spec.Pools {
		pool := &s.spec.Pools[i]
		if pool.service() {
			continue
		}
		if paused {
			// The pause rung: hold new batch dispatch. Count a shed action
			// only when work was actually deferred — queued jobs with free
			// capacity they would otherwise take.
			if len(s.st.Queues[pool.Name]) > 0 && len(s.freeNodesOf(pool)) > 0 {
				s.st.ShedTotal++
			}
			continue
		}
		changed = s.dispatchPool(pool) || changed
	}
	// Unmet service width feeds the preempt rung on the next pass.
	s.pendingService = 0
	for i := range s.spec.Pools {
		pool := &s.spec.Pools[i]
		if !pool.service() {
			continue
		}
		for _, job := range s.st.Queues[pool.Name] {
			w := job.Width
			if w <= 0 {
				w = 1
			}
			s.pendingService += w
		}
	}
	if changed {
		s.checkpointState()
	}
}

// dispatchPool runs one pool's policy over its queue and dispatches the
// picks; the head job may complete its width by borrowing.
func (s *Scheduler) dispatchPool(pool *PoolSpec) bool {
	queue := s.st.Queues[pool.Name]
	if len(queue) == 0 {
		return false
	}
	changed := false
	pool.Policy.order(queue)
	free := s.freeNodesOf(pool)
	picks := pool.Policy.pick(queue, len(free))
	picked := map[int]bool{}
	for _, idx := range picks {
		picked[idx] = true
		job := queue[idx]
		nodes := free[:job.Width]
		free = free[job.Width:]
		s.dispatch(job, nodes, nil)
		changed = true
	}
	// Leasing: if the head job still doesn't fit, borrow idle nodes
	// from lease-enabled pools.
	if len(picks) == 0 && len(queue) > 0 {
		head := queue[0]
		if borrowed, ok := s.borrow(pool, head.Width-len(free)); ok {
			nodes := append(append([]types.NodeID{}, free...), borrowed.nodes...)
			s.dispatch(head, nodes[:head.Width], borrowed.from)
			picked[0] = true
			changed = true
		}
	}
	if len(picked) > 0 {
		rest := queue[:0]
		for idx, job := range queue {
			if !picked[idx] {
				rest = append(rest, job)
			}
		}
		s.st.Queues[pool.Name] = rest
	}
	return changed
}

// preemptOne requeues the lowest-priority (then youngest) running batch
// job — the preempt rung of the shed ladder.
func (s *Scheduler) preemptOne() bool {
	var victim *RunJob
	for _, rj := range s.st.Running {
		pool := s.poolByName(rj.Job.Pool)
		if pool == nil || pool.service() {
			continue
		}
		if victim == nil ||
			rj.Job.Priority < victim.Job.Priority ||
			(rj.Job.Priority == victim.Job.Priority && rj.Job.Seq > victim.Job.Seq) {
			victim = rj
		}
	}
	if victim == nil {
		return false
	}
	s.st.Preempted++
	s.st.ShedTotal++
	s.requeue(victim.Job.ID, noNode, false, "preempted by shed ladder")
	return true
}

type borrowResult struct {
	nodes []types.NodeID
	from  map[types.NodeID]string
}

// borrow collects up to need idle nodes from lendable pools. A batch
// borrower only takes from lenders with empty queues; a service borrower
// overrides that check — protecting service capacity outranks batch
// backlog.
func (s *Scheduler) borrow(borrower *PoolSpec, need int) (borrowResult, bool) {
	if need <= 0 {
		return borrowResult{}, false
	}
	res := borrowResult{from: make(map[types.NodeID]string)}
	for i := range s.spec.Pools {
		lender := &s.spec.Pools[i]
		if lender.Name == borrower.Name || !lender.AllowLease {
			continue
		}
		if len(s.st.Queues[lender.Name]) > 0 && !borrower.service() {
			continue // lender needs its nodes
		}
		for _, n := range s.freeNodesOf(lender) {
			if s.home[n] != lender.Name {
				continue // a lease the lender holds on someone else's node
			}
			res.nodes = append(res.nodes, n)
			res.from[n] = lender.Name
			if len(res.nodes) == need {
				return res, true
			}
		}
	}
	return borrowResult{}, false
}

func (s *Scheduler) dispatch(job Job, nodes []types.NodeID, leasedFrom map[types.NodeID]string) {
	s.st.NextGen++
	rj := &RunJob{Job: job, Nodes: nodes, Remaining: len(nodes), LeasedFrom: leasedFrom,
		StartedAt: s.h.Now(), Gen: s.st.NextGen}
	// A retained node continues its lease under the new job.
	for _, n := range nodes {
		if r, held := s.st.Retained[n]; held {
			if rj.LeasedFrom == nil {
				rj.LeasedFrom = make(map[types.NodeID]string)
			}
			rj.LeasedFrom[n] = r.From
			delete(s.st.Retained, n)
		}
	}
	for n := range rj.LeasedFrom {
		s.leasedTo[n] = job.Pool
	}
	s.st.Running[job.ID] = rj
	if job.Walltime > 0 {
		id := job.ID
		started := rj.StartedAt
		s.h.After(job.Walltime, func() { s.enforceWalltime(id, started) })
	}
	for _, n := range nodes {
		s.busy[n] = job.ID
		n := n
		spec := ppm.JobSpec{
			ID: job.ID, Name: job.Name, Duration: job.Duration,
			Submitter: s.h.Self(), Gen: rj.Gen,
		}
		// Loads are not idempotent, but the token is reused across
		// retries and the PPM dedups by it, so a retried load starts the
		// job exactly once.
		s.caller.Go(rpc.Call{
			Targets: func() []types.Addr {
				return []types.Addr{{Node: n, Service: types.SvcPPM}}
			},
			Send: func(token uint64, to types.Addr) {
				s.h.Send(to, types.AnyNIC, ppm.MsgLoad, ppm.LoadReq{Token: token, Job: spec})
			},
			Done: func(payload any, _ error) {
				// A lost load (no ack) is adopted by reconcile.
				if ack, ok := payload.(ppm.LoadAck); ok && !ack.OK {
					// The node refused the load: a dispatch failure, not a
					// completion. Requeue against the job's budget so a job
					// no node will accept lands in StateFailed instead of
					// bouncing forever.
					s.requeue(ack.Job, n, true,
						fmt.Sprintf("dispatch refused by node %d: %s", n, ack.Err))
				}
			},
		})
	}
	s.events.Publish(types.Event{Type: types.EvJobStart, Partition: s.spec.Partition,
		Detail: fmt.Sprintf("job %d width %d pool %s", job.ID, job.Width, job.Pool)})
}

// releaseNode frees one node whose slice ended normally. A node a
// service pool borrowed is retained (the lease outlives the job) while
// overload control is on; other leases return to the lender immediately.
func (s *Scheduler) releaseNode(n types.NodeID, rj *RunJob) {
	if s.busy[n] == rj.Job.ID {
		delete(s.busy, n)
	}
	lender, leased := rj.LeasedFrom[n]
	if !leased {
		return
	}
	pool := s.poolByName(rj.Job.Pool)
	if s.shedding && pool != nil && pool.service() && !s.down[n] {
		s.st.Retained[n] = retainedLease{From: lender, By: pool.Name, FreedAt: s.h.Now()}
		s.leasedTo[n] = pool.Name
		return
	}
	delete(s.leasedTo, n)
}

func (s *Scheduler) sliceDone(id types.JobID, node types.NodeID, normal bool, gen uint64) {
	rj, ok := s.st.Running[id]
	if !ok {
		// Stray notification (job already requeued/deleted): only clear a
		// stale busy mark that still names this job.
		if s.busy[node] == id {
			delete(s.busy, node)
		}
		return
	}
	if gen != rj.Gen {
		// An exit from a previous incarnation (a slice killed during a
		// requeue, arriving after the job was re-dispatched): not this
		// incarnation's business.
		return
	}
	if !normal {
		// The slice died without the scheduler asking for it: a crashed
		// job process. Requeue, counted against the poison budget.
		s.requeue(id, node, true, fmt.Sprintf("slice crashed on node %d", node))
		return
	}
	s.releaseNode(node, rj)
	rj.Remaining--
	if rj.Remaining <= 0 {
		delete(s.st.Running, id)
		delete(s.st.Attempts, id)
		s.st.Completed++
		s.st.finish(id, StateCompleted)
		s.events.Publish(types.Event{Type: types.EvJobFinish, Partition: s.spec.Partition,
			Detail: fmt.Sprintf("job %d", id)})
		s.checkpointState()
	}
	s.schedule()
}

// onEvent reacts to kernel notifications: a dead node's job slices are
// killed elsewhere and the whole job requeued.
func (s *Scheduler) onEvent(ev types.Event) {
	s.EventsSeen++
	switch ev.Type {
	case types.EvNodeFail:
		s.down[ev.Node] = true
		// A lease on a dead node is void either way: release it to the
		// lender's books even when no job held it (retained lease).
		if _, held := s.st.Retained[ev.Node]; held {
			delete(s.st.Retained, ev.Node)
			delete(s.leasedTo, ev.Node)
		}
		if id, ok := s.busy[ev.Node]; ok {
			s.requeue(id, ev.Node, true, fmt.Sprintf("node %d failed", ev.Node))
		}
	case types.EvNodeRecover:
		delete(s.down, ev.Node)
		s.schedule()
	case types.EvNodeQuarantine:
		// Meta-level (partition slot) quarantine events carry SvcGSD;
		// only node-level ones name a schedulable node.
		if ev.Service != types.SvcGSD {
			s.quarantined[ev.Node] = true
		}
	case types.EvNodeStable:
		if ev.Service != types.SvcGSD {
			delete(s.quarantined, ev.Node)
			s.schedule()
		}
	}
}

// shortPolicy bounds the auxiliary kill/query calls: they are advisory
// (reconcile re-audits), so they get a tighter budget than dispatch loads.
var shortPolicy = rpc.Policy{Budget: 2 * time.Second}

// killSlice tells one node's PPM to abort its slice of a job. Kills are
// idempotent; a lost ack is retried within the short budget and then
// dropped — reconcile cleans up any survivor.
func (s *Scheduler) killSlice(n types.NodeID, id types.JobID) {
	s.cooling[n] = true
	s.caller.Go(rpc.Call{
		Policy: &shortPolicy,
		Targets: func() []types.Addr {
			return []types.Addr{{Node: n, Service: types.SvcPPM}}
		},
		Send: func(token uint64, to types.Addr) {
			s.h.Send(to, types.AnyNIC, ppm.MsgKill, ppm.KillReq{Token: token, Job: id})
		},
		Done: func(any, error) {
			// Acked or budget-exhausted: either way stop holding the node
			// back (a dead node is excluded by the down mark anyway).
			delete(s.cooling, n)
			s.schedule()
		},
	})
}

// requeue aborts a running job and puts it back at the head of its
// pool's queue. countAttempt charges the job's requeue budget (node
// crashes, dispatch failures); administrative requeues (preemption,
// drain) do not. A job over budget is quarantined in StateFailed with
// the reason recorded instead of requeueing forever.
func (s *Scheduler) requeue(id types.JobID, failedNode types.NodeID, countAttempt bool, reason string) {
	rj, ok := s.st.Running[id]
	if !ok {
		return
	}
	delete(s.st.Running, id)
	for _, n := range rj.Nodes {
		if s.busy[n] == id {
			delete(s.busy, n)
		}
		// Leases do not survive a requeue: the lender gets its node back
		// (or its books cleared, when the node is the one that died).
		delete(s.leasedTo, n)
		delete(s.st.Retained, n)
		if n == failedNode || s.down[n] {
			continue
		}
		s.killSlice(n, id)
	}
	if countAttempt {
		s.st.Attempts[id]++
		if s.st.Attempts[id] > jobRequeueBudget {
			s.quarantineJob(id, reason)
			return
		}
	}
	s.st.Requeued++
	job := rj.Job
	job.Seq = 0 // head of the queue
	s.st.Queues[job.Pool] = append([]Job{job}, s.st.Queues[job.Pool]...)
	s.events.Publish(types.Event{Type: types.EvJobFail, Partition: s.spec.Partition,
		Node: failedNode, Detail: fmt.Sprintf("job %d requeued: %s", id, reason)})
	s.checkpointState()
	s.schedule()
}

// quarantineJob moves a poison job to the terminal failed state.
func (s *Scheduler) quarantineJob(id types.JobID, reason string) {
	full := fmt.Sprintf("%s (requeue budget %d exhausted)", reason, jobRequeueBudget)
	s.st.Failed++
	s.st.finish(id, StateFailed)
	s.st.FailReasons[id] = full
	delete(s.st.Attempts, id)
	s.events.Publish(types.Event{Type: types.EvJobFail, Partition: s.spec.Partition,
		Detail: fmt.Sprintf("job %d failed: %s", id, full)})
	s.checkpointState()
	s.schedule()
}

// drain handles the operator drain/undrain request: placement stops on
// the node, its running batch slice is requeued (service jobs keep
// serving until the operator moves them), the node's PPM learns the mark
// for its readiness surface, and the bulletin carries it cluster-wide.
func (s *Scheduler) drain(from types.Addr, req DrainAdminReq) {
	ack := DrainAdminAck{Token: req.Token}
	n := req.Node
	if _, pooled := s.home[n]; !pooled {
		ack.Err = fmt.Sprintf("pws: node %d not in any pool", n)
		s.h.Send(from, types.AnyNIC, MsgDrainAck, ack)
		return
	}
	if req.Undrain {
		delete(s.st.Draining, n)
	} else if !s.st.Draining[n] {
		s.st.Draining[n] = true
		if id, held := s.busy[n]; held {
			if rj := s.st.Running[id]; rj != nil {
				if pool := s.poolByName(rj.Job.Pool); pool != nil && !pool.service() {
					s.requeue(id, noNode, false, fmt.Sprintf("node %d draining", n))
					ack.Requeued++
				}
			}
		}
	}
	s.notifyDrain(n, !req.Undrain)
	s.checkpointState()
	ack.OK = true
	s.h.Send(from, types.AnyNIC, MsgDrainAck, ack)
	s.schedule()
}

// notifyDrain tells a node's PPM its drain state, so the node's /readyz
// reports "draining". Idempotent; reconcile re-asserts active drains in
// case the ack was lost or the PPM restarted.
func (s *Scheduler) notifyDrain(n types.NodeID, draining bool) {
	s.caller.Go(rpc.Call{
		Policy: &shortPolicy,
		Targets: func() []types.Addr {
			return []types.Addr{{Node: n, Service: types.SvcPPM}}
		},
		Send: func(token uint64, to types.Addr) {
			s.h.Send(to, types.AnyNIC, ppm.MsgDrain, ppm.DrainReq{Token: token, Draining: draining})
		},
	})
}

// reconcile audits running jobs against the PPM daemons; slices that
// vanished without a notification (lost messages, scheduler migration)
// are treated as done. The audits are sheddable: under refuse-level
// pressure the next period re-issues them. It also re-asserts active
// drain marks.
func (s *Scheduler) reconcile() {
	// Sorted, so a failover replays the same sends in the same order.
	for _, n := range sortedKeys(s.st.Draining) {
		if s.st.Draining[n] && !s.down[n] {
			s.notifyDrain(n, true)
		}
	}
	for _, id := range sortedKeys(s.st.Running) {
		id, rj := id, s.st.Running[id]
		gen := rj.Gen
		for _, n := range rj.Nodes {
			n := n
			if s.busy[n] != id || s.down[n] {
				continue
			}
			s.caller.Go(rpc.Call{
				Policy:    &shortPolicy,
				Sheddable: true,
				Targets: func() []types.Addr {
					return []types.Addr{{Node: n, Service: types.SvcPPM}}
				},
				Send: func(token uint64, to types.Addr) {
					s.h.Send(to, types.AnyNIC, ppm.MsgQuery, ppm.QueryReq{Token: token, Job: id})
				},
				Done: func(payload any, _ error) {
					if ack, ok := payload.(ppm.QueryAck); ok && !ack.Running {
						s.sliceDone(id, n, true, gen)
					}
				},
			})
		}
	}
}

// deleteJob removes a job wherever it is: dequeued if waiting, its slices
// killed if running. outcome records why (user deletion or walltime).
func (s *Scheduler) deleteJob(id types.JobID, outcome JobState) error {
	// Queued?
	for pool, queue := range s.st.Queues {
		for i, job := range queue {
			if job.ID != id {
				continue
			}
			s.st.Queues[pool] = append(queue[:i:i], queue[i+1:]...)
			s.recordTermination(id, outcome)
			s.checkpointState()
			return nil
		}
	}
	// Running?
	if rj, ok := s.st.Running[id]; ok {
		delete(s.st.Running, id)
		delete(s.st.Attempts, id)
		for _, n := range rj.Nodes {
			if s.busy[n] == id {
				delete(s.busy, n)
			}
			// An operator deletion returns leases immediately — the job is
			// gone by explicit intent, not by load.
			delete(s.leasedTo, n)
			delete(s.st.Retained, n)
			if s.down[n] {
				continue
			}
			s.killSlice(n, id)
		}
		s.recordTermination(id, outcome)
		s.checkpointState()
		s.schedule()
		return nil
	}
	return fmt.Errorf("pws: job %d not queued or running", id)
}

func (s *Scheduler) recordTermination(id types.JobID, outcome JobState) {
	s.st.finish(id, outcome)
	switch outcome {
	case StateDeleted:
		s.st.Deleted++
	case StateTimeout:
		s.st.TimedOut++
	}
	s.events.Publish(types.Event{Type: types.EvJobFail, Partition: s.spec.Partition,
		Detail: fmt.Sprintf("job %d %s", id, outcome)})
}

// enforceWalltime deletes a job still running past its limit. The started
// stamp guards against acting on a requeued incarnation.
func (s *Scheduler) enforceWalltime(id types.JobID, started time.Time) {
	rj, ok := s.st.Running[id]
	if !ok || !rj.StartedAt.Equal(started) {
		return
	}
	_ = s.deleteJob(id, StateTimeout)
}

// jobStat answers a per-job query.
func (s *Scheduler) jobStat(req JobStatReq) JobStatAck {
	ack := JobStatAck{Token: req.Token, State: StateUnknown}
	if rj, ok := s.st.Running[req.ID]; ok {
		ack.State = StateRunning
		ack.Pool = rj.Job.Pool
		ack.Nodes = append([]types.NodeID(nil), rj.Nodes...)
		return ack
	}
	for pool, queue := range s.st.Queues {
		for _, job := range queue {
			if job.ID == req.ID {
				ack.State = StateQueued
				ack.Pool = pool
				return ack
			}
		}
	}
	if final, ok := s.st.final(req.ID); ok {
		ack.State = final
		ack.Reason = s.st.FailReasons[req.ID]
	}
	return ack
}

func (s *Scheduler) stat(token uint64) StatAck {
	ack := StatAck{Token: token, Completed: s.st.Completed, Requeued: s.st.Requeued,
		Deleted: s.st.Deleted, TimedOut: s.st.TimedOut, Failed: s.st.Failed,
		Util: s.lastUtil, Shed: shedName(s.st.Shed),
		ShedTotal: s.st.ShedTotal, AdmissionRejects: s.st.AdmissionRejects,
		Preempted: s.st.Preempted, LeasedNodes: len(s.leasedTo)}
	for i := range s.spec.Pools {
		pool := &s.spec.Pools[i]
		ps := PoolStat{Name: pool.Name, Type: pool.TypeName(), Nodes: len(pool.Nodes),
			Queued: len(s.st.Queues[pool.Name]), Free: len(s.freeNodesOf(pool))}
		for _, n := range pool.Nodes {
			if s.st.Draining[n] {
				ps.Draining++
			}
			// Leased counts this pool's nodes lent away, whether a job
			// still runs on them or a service pool retains them.
			if to, leased := s.leasedTo[n]; leased && to != pool.Name {
				ps.Leased++
			}
		}
		for _, rj := range s.st.Running {
			if rj.Job.Pool == pool.Name {
				ps.Running++
			}
		}
		ack.Queued += ps.Queued
		ack.Running += ps.Running
		ack.Pools = append(ack.Pools, ps)
	}
	return ack
}

// Overview snapshots the scheduler for same-process status surfaces
// (/statusz, /metrics): identical content to a MsgStat reply.
func (s *Scheduler) Overview() StatAck { return s.stat(0) }

// checkpointState group-commits: it saves the state at once unless a save
// is in flight, whose completion then sends one covering every change
// since. The submit acks a save covers leave right after it is sent.
func (s *Scheduler) checkpointState() {
	s.dirty = true
	if s.saving {
		return
	}
	s.dirty = false
	if data, err := encodeState(s.st, s.saveLen); err == nil {
		s.saving, s.saveLen = true, len(data)
		s.ckpt.Save(s.ckptOwner(), data, func(ok bool) {
			// A failed save leaves the state dirty for the next change or
			// refresh: a shed save fails inside Save, so no retry here.
			s.saving, s.dirty = false, s.dirty || !ok
			if ok && s.dirty {
				s.checkpointState()
			}
		})
	}
	for _, q := range s.acks {
		s.h.Send(q.to, types.AnyNIC, MsgSubmitAck, q.ack)
	}
	s.acks = nil
}

// encodeState encodes st into a fresh buffer sized from hint, the
// previous save's length, plus slack for growth: the checkpoint store
// keeps the slice, so it cannot be reused, but it need not be regrown.
func encodeState(st state, hint int) ([]byte, error) {
	data, err := codec.AppendPayload(make([]byte, 0, hint+hint/16+256), st)
	if err != nil {
		return nil, fmt.Errorf("pws: encode state: %w", err)
	}
	return data, nil
}

func decodeState(data []byte) (state, error) {
	var st state
	if err := codec.DecodePayload(data, &st); err != nil {
		return state{}, fmt.Errorf("pws: decode state: %w", err)
	}
	return st, nil
}

var _ simhost.Process = (*Scheduler)(nil)

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
