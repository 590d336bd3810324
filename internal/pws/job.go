// Package pws implements Phoenix-PWS, the Partitioned Workload Solution
// job management system built on the Phoenix kernel (paper §5.4, Figure 8).
// Compared with the PBS baseline it improves on:
//
//   - the kernel provides most of the machinery (process management,
//     monitoring, events), so PWS itself is only a scheduler and interface;
//   - resource information comes from the data bulletin federation with a
//     single query, and node/network/application events arrive as
//     real-time notifications — no continuous polling;
//   - fault tolerance rides on the group service: the scheduler is
//     supervised by its partition's GSD, checkpoints its queues, and is
//     restarted or migrated with state intact;
//   - multiple pools with per-pool scheduling policies, and dynamic
//     leasing of idle nodes between pools.
package pws

import (
	"time"

	"repro/internal/codec"
	"repro/internal/types"
)

// Message types of the PWS scheduler.
const (
	MsgSubmit     = "pws.submit"
	MsgSubmitAck  = "pws.submit.ack"
	MsgStat       = "pws.stat"
	MsgStatAck    = "pws.stat.ack"
	MsgDelete     = "pws.delete"
	MsgDeleteAck  = "pws.delete.ack"
	MsgJobStat    = "pws.jobstat"
	MsgJobStatAck = "pws.jobstat.ack"
	MsgDrain      = "pws.drain"
	MsgDrainAck   = "pws.drain.ack"
)

// Job is one job: a batch slice set, or — in a service pool — a
// long-running request server.
type Job struct {
	ID       types.JobID
	Pool     string
	Name     string
	Duration time.Duration
	Width    int // nodes required
	Priority int // larger runs first under the priority policy
	// Walltime, when nonzero, bounds the job's running time: the
	// scheduler deletes jobs that overrun it.
	Walltime time.Duration
	// SLO declares a service job's latency objective (informational for
	// the scheduler: it rides the job into stat surfaces and load
	// drivers, which check request latency against it). Zero for batch.
	SLO time.Duration
	Seq uint64
}

// JobState is a job's lifecycle position as reported by job queries.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateDeleted   JobState = "deleted"
	StateTimeout   JobState = "timeout"
	StateRequeued  JobState = "requeued" // transiently: back in the queue
	StateUnknown   JobState = "unknown"
	// StateFailed is terminal: the job exhausted its requeue budget
	// crashing nodes or failing dispatch (poison-job quarantine). The
	// reason rides JobStatAck.Reason.
	StateFailed JobState = "failed"
)

// DeleteReq cancels a job: dequeued if waiting, killed if running.
type DeleteReq struct {
	Token uint64
	ID    types.JobID
}

// DeleteAck confirms (or refuses) a deletion.
type DeleteAck struct {
	Token uint64
	OK    bool
	Err   string
}

// JobStatReq asks for one job's state.
type JobStatReq struct {
	Token uint64
	ID    types.JobID
}

// JobStatAck reports a job's state.
type JobStatAck struct {
	Token  uint64
	State  JobState
	Pool   string
	Nodes  []types.NodeID // populated for running jobs
	Reason string         // populated for failed jobs
}

// SubmitReq queues a job. The scheduler assigns IDs when the submitted
// job's ID is zero.
type SubmitReq struct {
	Token uint64
	Job   Job
}

// SubmitAck confirms queueing. Shed marks an admission refusal: the
// scheduler's shed ladder reached its refuse rung and the submit was a
// batch job. Clients surface it as rpc.ErrShed so callers treat cluster
// overload like any other shed and back off.
type SubmitAck struct {
	Token uint64
	OK    bool
	ID    types.JobID
	Err   string
	Shed  bool
}

// StatReq asks for scheduler statistics.
type StatReq struct{ Token uint64 }

// PoolStat summarises one pool.
type PoolStat struct {
	Name     string
	Type     string // "batch" or "service"
	Nodes    int    // pool size from the spec
	Queued   int
	Running  int
	Free     int
	Leased   int // nodes currently borrowed from this pool
	Draining int // pool nodes under an operator drain
}

// StatAck reports scheduler state.
type StatAck struct {
	Token     uint64
	Queued    int
	Running   int
	Completed int
	Requeued  int
	Deleted   int
	TimedOut  int
	Failed    int // poison jobs quarantined in StateFailed
	Pools     []PoolStat

	// Overload standing: the cluster utilisation the scheduler computed
	// on its last cycle, the shed ladder's rung, and the cumulative shed
	// counters (total shed actions, admission refusals, preemptions).
	Util             float64
	Shed             string
	ShedTotal        uint64
	AdmissionRejects uint64
	Preempted        uint64
	LeasedNodes      int
}

// DrainAdminReq marks a node unschedulable (drain) or schedulable again
// (undrain). Draining requeues the node's running batch slices, stops
// placement, and flips the node's readiness surface to "draining".
type DrainAdminReq struct {
	Token   uint64
	Node    types.NodeID
	Undrain bool
}

// DrainAdminAck confirms the drain-state change.
type DrainAdminAck struct {
	Token    uint64
	OK       bool
	Err      string
	Requeued int // batch jobs requeued off the node
}

// Reply tokens (rpc.Reply): the PWS client resolves these.
func (a SubmitAck) ReplyToken() uint64     { return a.Token }
func (a StatAck) ReplyToken() uint64       { return a.Token }
func (a DeleteAck) ReplyToken() uint64     { return a.Token }
func (a JobStatAck) ReplyToken() uint64    { return a.Token }
func (a DrainAdminAck) ReplyToken() uint64 { return a.Token }

func init() {
	codec.Register(176, SubmitReq{})
	codec.Register(177, SubmitAck{})
	codec.Register(178, StatReq{})
	codec.Register(179, StatAck{})
	codec.Register(180, DeleteReq{})
	codec.Register(181, DeleteAck{})
	codec.Register(182, JobStatReq{})
	codec.Register(183, JobStatAck{})
	codec.Register(184, DrainAdminReq{})
	codec.Register(185, DrainAdminAck{})
	codec.Register(186, state{})
}
