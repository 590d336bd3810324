// Package ppm implements Phoenix's parallel process management service
// (paper §4.2): "efficient remote jobs loading, deleting, and resource
// cleaning up", plus the kernel's parallel command calls. A PPM daemon runs
// on every node; job managers (PWS, PBS) load jobs through it and receive
// completion notifications. Parallel commands fan out over a k-ary tree of
// PPM daemons so a cluster-wide command completes in logarithmic depth.
package ppm

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/rpc"
	"repro/internal/security"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Message types of the PPM service.
const (
	MsgLoad     = "ppm.load"
	MsgLoadAck  = "ppm.load.ack"
	MsgKill     = "ppm.kill"
	MsgKillAck  = "ppm.kill.ack"
	MsgCleanup  = "ppm.cleanup"
	MsgJobDone  = "ppm.job.done"
	MsgPExec    = "ppm.pexec"
	MsgPExecAck = "ppm.pexec.ack"
	MsgQuery    = "ppm.query"
	MsgQueryAck = "ppm.query.ack"
	MsgDrain    = "ppm.drain"
	MsgDrainAck = "ppm.drain.ack"
)

// QueryReq asks whether a job still runs on the node (job managers use it
// to reconcile after lost notifications or a scheduler migration).
type QueryReq struct {
	Token uint64
	Job   types.JobID
}

// QueryAck answers a job query.
type QueryAck struct {
	Token   uint64
	Job     types.JobID
	Running bool
}

// JobSpec describes one job process to load.
type JobSpec struct {
	ID        types.JobID
	Name      string
	Duration  time.Duration // simulated run time; 0 = runs until killed
	Submitter types.Addr    // receives the MsgJobDone notification
	// Gen distinguishes dispatch incarnations of the same job: it is
	// echoed in JobDone so a scheduler that requeued the job can tell a
	// killed old slice's exit from the new incarnation's.
	Gen uint64
}

// JobService derives the process-table service name for a job.
func (j JobSpec) JobService() string { return fmt.Sprintf("job/%d", j.ID) }

// LoadReq loads a job onto the receiving node. Signed carries an optional
// security token, verified when the daemon was configured with an
// authority.
type LoadReq struct {
	Token  uint64
	Job    JobSpec
	Signed string
}

// LoadAck reports the load result.
type LoadAck struct {
	Token uint64
	OK    bool
	Err   string
	Node  types.NodeID
	Job   types.JobID
}

// KillReq deletes a job from the receiving node.
type KillReq struct {
	Token  uint64
	Job    types.JobID
	Signed string
}

// KillAck reports the kill result.
type KillAck struct {
	Token uint64
	OK    bool
	Err   string
}

// CleanupReq removes every job process on the node (resource cleanup).
type CleanupReq struct{ Signed string }

// JobDone notifies the submitter that a job left the node.
type JobDone struct {
	Job    types.JobID
	Node   types.NodeID
	Normal bool // true: ran to completion; false: killed or node-reaped
	Gen    uint64
}

// DrainReq marks the node draining (or clears the mark): the scheduler
// has taken it out of placement, and the node's readiness surface should
// say so. Setting the same state twice is a no-op, which is what lets the
// scheduler re-assert the mark on every reconcile instead of tracking
// delivery.
type DrainReq struct {
	Token    uint64
	Draining bool
	Signed   string
}

// DrainAck confirms the drain-state change.
type DrainAck struct {
	Token    uint64
	OK       bool
	Err      string
	Node     types.NodeID
	Draining bool
}

// PExecReq runs a command on a set of nodes via tree fan-out. The receiving
// daemon executes locally when its own node is in Nodes, forwards the rest
// to up to Fanout children, and aggregates.
type PExecReq struct {
	Token  uint64
	Cmd    string
	Args   []string
	Nodes  []types.NodeID
	Fanout int
}

// ExecResult is one node's command outcome.
type ExecResult struct {
	Node   types.NodeID
	Output string
	Err    string
}

// PExecAck aggregates a subtree's results.
type PExecAck struct {
	Token   uint64
	Results []ExecResult
}

func init() {
	codec.Register(160, JobSpec{}) // travels inside agent spawn requests (job loading)
	codec.Register(161, LoadReq{})
	codec.Register(162, LoadAck{})
	codec.Register(163, KillReq{})
	codec.Register(164, KillAck{})
	codec.Register(165, CleanupReq{})
	codec.Register(166, JobDone{})
	codec.Register(167, PExecReq{})
	codec.Register(168, PExecAck{})
	codec.Register(169, QueryReq{})
	codec.Register(170, QueryAck{})
	codec.Register(171, DrainReq{})
	codec.Register(172, DrainAck{})
}

// Spec configures a PPM daemon.
type Spec struct {
	// Authority, when non-nil, enforces token checks on load/kill/cleanup
	// (the kernel's security service provides the tokens).
	Authority *security.Authority
	// SubtreeTimeout bounds each child's aggregation during pexec.
	SubtreeTimeout time.Duration
	// DedupTTL is how long a load/kill ack stays cached for duplicate
	// replay. It must exceed the largest caller retry budget: evicting an
	// entry while its call can still retry would let a retried
	// non-idempotent load re-execute. Zero means DefaultDedupTTL.
	DedupTTL time.Duration
}

// DefaultDedupTTL retains dedup entries for several default RPC budgets,
// so even a caller with a stretched budget sees its retries deduplicated.
const DefaultDedupTTL = 4 * rpc.DefaultBudget

// dedupCap is a memory backstop on the dedup cache, far above any
// plausible in-flight request volume within one TTL; eviction is normally
// age-based, never count-based, so a burst of fresh requests cannot push
// out an entry whose call is still inside its retry budget.
const dedupCap = 65536

// dedupKey identifies one logical request: resilient callers reuse the
// token across retry attempts, so (caller, token) pins a logical call even
// when the retransmission arrives after the first attempt took effect.
type dedupKey struct {
	from  types.Addr
	token uint64
}

// dedupEntry is one cached ack with its insertion time, so eviction can
// spare entries whose callers may still be retrying.
type dedupEntry struct {
	ack any
	at  time.Time
}

// Daemon is the per-node PPM process.
type Daemon struct {
	spec        Spec
	h           *simhost.Handle
	pending     *rpc.Pending
	jobs        map[types.JobID]JobSpec
	cancelWatch func()

	// seen caches the ack of each recent load/kill so a retried request
	// replays the original outcome instead of re-executing (loads are not
	// idempotent: a blind re-spawn would double-start the job).
	seen      map[dedupKey]dedupEntry
	seenOrder []dedupKey

	// Deduped counts retried requests answered from the cache.
	Deduped uint64

	// draining mirrors the scheduler's drain mark for this node, surfaced
	// through Draining() on the readiness path.
	draining bool
}

// New builds a PPM daemon.
func New(spec Spec) *Daemon {
	if spec.SubtreeTimeout == 0 {
		spec.SubtreeTimeout = 5 * time.Second
	}
	if spec.DedupTTL == 0 {
		spec.DedupTTL = DefaultDedupTTL
	}
	return &Daemon{spec: spec, jobs: make(map[types.JobID]JobSpec), seen: make(map[dedupKey]dedupEntry)}
}

// replay answers a retried request from the dedup cache; it reports whether
// the request was a duplicate. Token 0 marks legacy single-shot callers.
func (d *Daemon) replay(from types.Addr, token uint64, msgType string) bool {
	if token == 0 {
		return false
	}
	e, dup := d.seen[dedupKey{from, token}]
	if !dup {
		return false
	}
	d.Deduped++
	d.h.Send(from, types.AnyNIC, msgType, e.ack)
	return true
}

// remember caches a request's ack for duplicate replay. Eviction is by
// age: entries older than DedupTTL have outlived every caller's retry
// budget, so no retry of theirs can still arrive. The count cap is only a
// memory backstop against pathological volume.
func (d *Daemon) remember(from types.Addr, token uint64, ack any) {
	if token == 0 {
		return
	}
	now := d.h.Now()
	for len(d.seenOrder) > 0 {
		front := d.seenOrder[0]
		e, ok := d.seen[front]
		expired := !ok || now.Sub(e.at) > d.spec.DedupTTL
		if !expired && len(d.seenOrder) < dedupCap {
			break
		}
		delete(d.seen, front)
		d.seenOrder = d.seenOrder[1:]
	}
	k := dedupKey{from, token}
	if _, exists := d.seen[k]; !exists {
		d.seenOrder = append(d.seenOrder, k)
	}
	d.seen[k] = dedupEntry{ack: ack, at: now}
}

// Service implements simhost.Process.
func (d *Daemon) Service() string { return types.SvcPPM }

// Start implements simhost.Process.
func (d *Daemon) Start(h *simhost.Handle) {
	d.h = h
	d.pending = rpc.NewPending(h)
	// A PPM restarted by its WD re-adopts the jobs still on its node,
	// starting ones included, so their exits still reach the submitter.
	for _, svc := range h.Host().Procs() {
		if j, ok := h.Host().Spawned(svc).(*JobProc); ok {
			d.jobs[j.Spec().ID] = j.Spec()
		}
	}
	d.cancelWatch = h.Host().Watch(func(ev simhost.ProcEvent) {
		if ev.Started || !strings.HasPrefix(ev.Service, "job/") {
			return
		}
		var id types.JobID
		if _, err := fmt.Sscanf(ev.Service, "job/%d", &id); err != nil {
			return
		}
		job, ok := d.jobs[id]
		if !ok {
			return
		}
		delete(d.jobs, id)
		if job.Submitter != (types.Addr{}) {
			d.h.Send(job.Submitter, types.AnyNIC, MsgJobDone, JobDone{
				Job: id, Node: d.h.Node(), Normal: ev.Cause == simhost.ExitNormal,
				Gen: job.Gen,
			})
		}
	})
}

// OnStop implements simhost.Process.
func (d *Daemon) OnStop() {
	if d.cancelWatch != nil {
		d.cancelWatch()
	}
}

// Jobs reports the jobs currently tracked on this node.
func (d *Daemon) Jobs() int { return len(d.jobs) }

// Draining reports whether a scheduler has marked this node draining.
func (d *Daemon) Draining() bool { return d.draining }

// authorize checks a signed token against the configured authority.
func (d *Daemon) authorize(signed string, op security.Operation) error {
	if d.spec.Authority == nil {
		return nil
	}
	_, err := d.spec.Authority.Authorize(signed, op, d.h.Now())
	return err
}

// Receive implements simhost.Process.
func (d *Daemon) Receive(msg types.Message) {
	switch msg.Type {
	case MsgLoad:
		req, ok := msg.Payload.(LoadReq)
		if !ok {
			return
		}
		if d.replay(msg.From, req.Token, MsgLoadAck) {
			return
		}
		ack := LoadAck{Token: req.Token, Node: d.h.Node(), Job: req.Job.ID}
		if err := d.authorize(req.Signed, security.OpProcLoad); err != nil {
			ack.Err = err.Error()
		} else if _, err := d.h.Host().Spawn(NewJobProc(req.Job)); err != nil {
			ack.Err = err.Error()
		} else {
			ack.OK = true
			d.jobs[req.Job.ID] = req.Job
		}
		d.remember(msg.From, req.Token, ack)
		d.h.Send(msg.From, types.AnyNIC, MsgLoadAck, ack)
	case MsgKill:
		req, ok := msg.Payload.(KillReq)
		if !ok {
			return
		}
		if d.replay(msg.From, req.Token, MsgKillAck) {
			return
		}
		ack := KillAck{Token: req.Token}
		if err := d.authorize(req.Signed, security.OpProcKill); err != nil {
			ack.Err = err.Error()
		} else if job, tracked := d.jobs[req.Job]; !tracked {
			ack.Err = fmt.Sprintf("ppm: job %d not on %v", req.Job, d.h.Node())
		} else if err := d.h.Host().Kill(job.JobService()); err != nil {
			ack.Err = err.Error()
		} else {
			ack.OK = true
		}
		d.remember(msg.From, req.Token, ack)
		d.h.Send(msg.From, types.AnyNIC, MsgKillAck, ack)
	case MsgCleanup:
		req, ok := msg.Payload.(CleanupReq)
		if !ok {
			return
		}
		if d.authorize(req.Signed, security.OpProcKill) != nil {
			return
		}
		for id, job := range d.jobs {
			_ = d.h.Host().Kill(job.JobService())
			delete(d.jobs, id)
		}
	case MsgPExec:
		req, ok := msg.Payload.(PExecReq)
		if !ok {
			return
		}
		d.pexec(msg.From, req)
	case MsgPExecAck:
		ack, ok := msg.Payload.(PExecAck)
		if !ok {
			return
		}
		d.pending.Resolve(ack.Token, ack)
	case MsgQuery:
		req, ok := msg.Payload.(QueryReq)
		if !ok {
			return
		}
		_, running := d.jobs[req.Job]
		d.h.Send(msg.From, types.AnyNIC, MsgQueryAck, QueryAck{
			Token: req.Token, Job: req.Job, Running: running,
		})
	case MsgDrain:
		req, ok := msg.Payload.(DrainReq)
		if !ok {
			return
		}
		ack := DrainAck{Token: req.Token, Node: d.h.Node(), Draining: req.Draining}
		if err := d.authorize(req.Signed, security.OpProcKill); err != nil {
			ack.Err = err.Error()
		} else {
			// Idempotent by construction: no dedup cache needed, the
			// scheduler re-asserts the mark on every reconcile.
			d.draining = req.Draining
			ack.OK = true
		}
		d.h.Send(msg.From, types.AnyNIC, MsgDrainAck, ack)
	}
}

// pexec executes locally (if this node is addressed) and forwards the
// remaining nodes to up to Fanout children, aggregating their results.
func (d *Daemon) pexec(replyTo types.Addr, req PExecReq) {
	self := d.h.Node()
	var rest []types.NodeID
	localRun := false
	for _, n := range req.Nodes {
		if n == self {
			localRun = true
		} else {
			rest = append(rest, n)
		}
	}
	fanout := req.Fanout
	if fanout < 1 {
		fanout = 4
	}

	var results []ExecResult
	if localRun {
		out, err := d.h.Host().RunCommand(req.Cmd, req.Args)
		res := ExecResult{Node: self, Output: out}
		if err != nil {
			res.Err = err.Error()
		}
		results = append(results, res)
	}
	if len(rest) == 0 {
		d.h.Send(replyTo, types.AnyNIC, MsgPExecAck, PExecAck{Token: req.Token, Results: results})
		return
	}
	// Split the remaining nodes into up to fanout child subtrees; each
	// child daemon handles its first node locally and recurses.
	groups := splitGroups(rest, fanout)
	remaining := len(groups)
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		d.h.Send(replyTo, types.AnyNIC, MsgPExecAck, PExecAck{Token: req.Token, Results: results})
	}
	for _, grp := range groups {
		grp := grp
		tok := d.pending.New(d.spec.SubtreeTimeout,
			func(payload any) {
				ack := payload.(PExecAck)
				results = append(results, ack.Results...)
				finish()
			},
			func() {
				// Mark every node of the silent subtree as failed.
				for _, n := range grp {
					results = append(results, ExecResult{Node: n, Err: "ppm: subtree timeout"})
				}
				finish()
			})
		d.h.Send(types.Addr{Node: grp[0], Service: types.SvcPPM}, types.AnyNIC,
			MsgPExec, PExecReq{Token: tok, Cmd: req.Cmd, Args: req.Args, Nodes: grp, Fanout: fanout})
	}
}

// splitGroups partitions nodes into at most k contiguous groups.
func splitGroups(nodes []types.NodeID, k int) [][]types.NodeID {
	if len(nodes) == 0 {
		return nil
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	out := make([][]types.NodeID, 0, k)
	base := len(nodes) / k
	extra := len(nodes) % k
	i := 0
	for g := 0; g < k; g++ {
		n := base
		if g < extra {
			n++
		}
		out = append(out, nodes[i:i+n])
		i += n
	}
	return out
}

var _ simhost.Process = (*Daemon)(nil)
