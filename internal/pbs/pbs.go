// Package pbs implements the baseline job-management system PWS improves
// on (paper §5.4, Figure 7): a PBS-like central server with its own
// per-node monitor daemons (moms). The server discovers resource state by
// polling every mom continually — the O(nodes) network traffic the paper
// contrasts with PWS's event-driven monitoring — schedules FIFO, and has
// no high-availability support: when the server node dies, the system is
// down.
package pbs

import (
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Message types of the PBS baseline.
const (
	MsgSubmit    = "pbs.submit"
	MsgSubmitAck = "pbs.submit.ack"
	MsgStatus    = "mom.status"
	MsgStatusAck = "mom.status.ack"
	MsgRun       = "mom.run"
	MsgRunAck    = "mom.run.ack"
	MsgDone      = "mom.done"
)

// Job is one batch job.
type Job struct {
	ID       types.JobID
	Name     string
	Duration time.Duration
	Width    int // nodes required
}

// SubmitReq queues a job.
type SubmitReq struct {
	Token uint64
	Job   Job
}

// SubmitAck confirms queueing.
type SubmitAck struct {
	Token uint64
	OK    bool
	Err   string
}

// StatusReq polls a mom.
type StatusReq struct{ Token uint64 }

// StatusAck reports a node's load.
type StatusAck struct {
	Token uint64
	Node  types.NodeID
	Usage types.ResourceStats
	Jobs  int
}

// RunReq starts one job slice on a mom's node.
type RunReq struct {
	Token uint64
	Job   Job
}

// RunAck confirms the start.
type RunAck struct {
	Token uint64
	OK    bool
	Node  types.NodeID
	Job   types.JobID
}

// DoneMsg notifies the server that a job slice finished.
type DoneMsg struct {
	Job  types.JobID
	Node types.NodeID
}

// Reply tokens (rpc.Reply): the PBS server's poll and run tables resolve
// these.
func (a StatusAck) ReplyToken() uint64 { return a.Token }
func (a RunAck) ReplyToken() uint64    { return a.Token }

func init() {
	codec.Register(272, SubmitReq{})
	codec.Register(273, SubmitAck{})
	codec.Register(274, StatusReq{})
	codec.Register(275, StatusAck{})
	codec.Register(276, RunReq{})
	codec.Register(277, RunAck{})
	codec.Register(278, DoneMsg{})
}

// Mom is the per-node monitor/executor daemon.
type Mom struct {
	server      types.NodeID
	h           *simhost.Handle
	jobs        map[types.JobID]Job
	cancelWatch func()
}

// NewMom builds a mom reporting to the given server node.
func NewMom(server types.NodeID) *Mom {
	return &Mom{server: server, jobs: make(map[types.JobID]Job)}
}

// Service implements simhost.Process.
func (m *Mom) Service() string { return types.SvcPBSMom }

// Start implements simhost.Process.
func (m *Mom) Start(h *simhost.Handle) {
	m.h = h
	m.cancelWatch = h.Host().Watch(func(ev simhost.ProcEvent) {
		if ev.Started {
			return
		}
		for id, job := range m.jobs {
			if job.JobService() == ev.Service {
				delete(m.jobs, id)
				m.h.Send(types.Addr{Node: m.server, Service: types.SvcPBS},
					types.AnyNIC, MsgDone, DoneMsg{Job: id, Node: m.h.Node()})
			}
		}
	})
}

// JobService derives the job's process name.
func (j Job) JobService() string {
	return ppm.JobSpec{ID: j.ID}.JobService()
}

// OnStop implements simhost.Process.
func (m *Mom) OnStop() {
	if m.cancelWatch != nil {
		m.cancelWatch()
	}
}

// Receive implements simhost.Process.
func (m *Mom) Receive(msg types.Message) {
	switch msg.Type {
	case MsgStatus:
		req, ok := msg.Payload.(StatusReq)
		if !ok {
			return
		}
		m.h.Send(msg.From, types.AnyNIC, MsgStatusAck, StatusAck{
			Token: req.Token, Node: m.h.Node(),
			Usage: m.h.Host().Usage(), Jobs: len(m.jobs),
		})
	case MsgRun:
		req, ok := msg.Payload.(RunReq)
		if !ok {
			return
		}
		spec := ppm.JobSpec{ID: req.Job.ID, Name: req.Job.Name, Duration: req.Job.Duration}
		_, err := m.h.Host().Spawn(ppm.NewJobProc(spec))
		ack := RunAck{Token: req.Token, OK: err == nil, Node: m.h.Node(), Job: req.Job.ID}
		if err == nil {
			m.jobs[req.Job.ID] = req.Job
		}
		m.h.Send(msg.From, types.AnyNIC, MsgRunAck, ack)
	}
}

// ServerSpec configures the PBS server.
type ServerSpec struct {
	Nodes        []types.NodeID // compute nodes managed
	PollInterval time.Duration  // mom polling period (continuous polling)
	SchedPeriod  time.Duration  // scheduling cycle
}

// Server is the central PBS server daemon.
type Server struct {
	spec    ServerSpec
	h       *simhost.Handle
	pending *rpc.Pending

	queue   []Job
	busy    map[types.NodeID]types.JobID
	known   map[types.NodeID]StatusAck
	running map[types.JobID]*runState

	// Completed counts finished jobs.
	Completed int
	// Scheduled counts dispatched jobs.
	Scheduled int
}

type runState struct {
	job       Job
	remaining int
}

// NewServer builds a PBS server.
func NewServer(spec ServerSpec) *Server {
	return &Server{
		spec:    spec,
		busy:    make(map[types.NodeID]types.JobID),
		known:   make(map[types.NodeID]StatusAck),
		running: make(map[types.JobID]*runState),
	}
}

// Service implements simhost.Process.
func (s *Server) Service() string { return types.SvcPBS }

// Start implements simhost.Process.
func (s *Server) Start(h *simhost.Handle) {
	s.h = h
	s.pending = rpc.NewPending(h)
	s.poll()
	h.Every(s.spec.PollInterval, s.poll)
	h.Every(s.spec.SchedPeriod, s.schedule)
}

// OnStop implements simhost.Process.
func (s *Server) OnStop() {}

// QueueLen reports the number of queued jobs.
func (s *Server) QueueLen() int { return len(s.queue) }

// poll requests status from every mom — the continuous polling traffic the
// paper's comparison highlights.
func (s *Server) poll() {
	for _, n := range s.spec.Nodes {
		tok := s.pending.New(s.spec.PollInterval,
			func(payload any) {
				if ack, ok := payload.(StatusAck); ok {
					s.known[ack.Node] = ack
				}
			}, nil)
		s.h.Send(types.Addr{Node: n, Service: types.SvcPBSMom}, types.AnyNIC,
			MsgStatus, StatusReq{Token: tok})
	}
}

// schedule dispatches FIFO jobs onto idle nodes.
func (s *Server) schedule() {
	for len(s.queue) > 0 {
		job := s.queue[0]
		free := s.freeNodes()
		if len(free) < job.Width {
			return // strict FIFO: head blocks the queue
		}
		s.queue = s.queue[1:]
		s.dispatch(job, free[:job.Width])
	}
}

func (s *Server) freeNodes() []types.NodeID {
	var out []types.NodeID
	for _, n := range s.spec.Nodes {
		if _, taken := s.busy[n]; taken {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Server) dispatch(job Job, nodes []types.NodeID) {
	s.Scheduled++
	s.running[job.ID] = &runState{job: job, remaining: len(nodes)}
	for _, n := range nodes {
		s.busy[n] = job.ID
		tok := s.pending.New(5*time.Second, func(payload any) {
			if ack, ok := payload.(RunAck); ok && !ack.OK {
				// The slice failed to start; treat as immediately done.
				s.sliceDone(ack.Job, ack.Node)
			}
		}, nil)
		s.h.Send(types.Addr{Node: n, Service: types.SvcPBSMom}, types.AnyNIC,
			MsgRun, RunReq{Token: tok, Job: job})
	}
}

func (s *Server) sliceDone(id types.JobID, node types.NodeID) {
	if s.busy[node] == id {
		delete(s.busy, node)
	}
	rs, ok := s.running[id]
	if !ok {
		return
	}
	rs.remaining--
	if rs.remaining <= 0 {
		delete(s.running, id)
		s.Completed++
	}
	s.schedule()
}

// Receive implements simhost.Process.
func (s *Server) Receive(msg types.Message) {
	if s.pending.Handle(msg) {
		return
	}
	switch msg.Type {
	case MsgSubmit:
		req, ok := msg.Payload.(SubmitReq)
		if !ok {
			return
		}
		job := req.Job
		if job.Width <= 0 {
			job.Width = 1
		}
		s.queue = append(s.queue, job)
		s.h.Send(msg.From, types.AnyNIC, MsgSubmitAck, SubmitAck{Token: req.Token, OK: true})
		s.schedule()
	case MsgDone:
		if dm, ok := msg.Payload.(DoneMsg); ok {
			s.sliceDone(dm.Job, dm.Node)
		}
	}
}

var _ simhost.Process = (*Server)(nil)
var _ simhost.Process = (*Mom)(nil)
