package core

import (
	"time"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/heartbeat"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// ClientProc is a generic user-environment process: it bundles the client
// sides of the kernel interfaces (event service, data bulletin, checkpoint
// service, PPM) against a partition's service instances and follows GSD
// migrations. Examples, experiment recorders and ad-hoc tools embed it
// instead of reimplementing dispatch.
//
// All calls run through resilient rpc.Callers: because the target
// resolvers read c.Server live, a retry issued after a GSD announce lands
// on the post-migration access point.
type ClientProc struct {
	Name      string
	Partition types.PartitionID
	Server    types.NodeID // current partition server node

	// RPC carries resilient-call options shared by the bundled clients
	// (breakers, metrics, budget). Set before Spawn; the budget defaults
	// to rpcTimeout.
	RPC rpc.Options

	H        *simhost.Handle
	Events   *events.Client
	Bulletin *bulletin.Client
	Ckpt     *checkpoint.Client
	// Pending and Caller are the process's own request tables (one-shot
	// and resilient); Receive resolves their replies.
	Pending *rpc.Pending
	Caller  *rpc.Caller

	// OnStart runs once the process is up and the clients exist.
	OnStart func(c *ClientProc)
	// OnMessage sees messages not consumed by the built-in clients or
	// the request tables (late duplicate replies included).
	OnMessage func(c *ClientProc, msg types.Message)
}

// rpcTimeout is the client-side deadline budget (retries included).
const rpcTimeout = 3 * time.Second

// NewClientProc builds a client process named name, homed on the given
// partition whose services currently live on server.
func NewClientProc(name string, partition types.PartitionID, server types.NodeID) *ClientProc {
	return &ClientProc{Name: name, Partition: partition, Server: server}
}

// Service implements simhost.Process.
func (c *ClientProc) Service() string { return c.Name }

// Start implements simhost.Process.
func (c *ClientProc) Start(h *simhost.Handle) {
	c.H = h
	opts := c.RPC
	if opts.Budget <= 0 {
		opts.Budget = rpcTimeout
	}
	c.Pending = rpc.NewPending(h)
	c.Caller = rpc.NewCaller(h, opts)
	c.Events = events.NewClient(h, opts, func() (types.Addr, bool) {
		return types.Addr{Node: c.Server, Service: types.SvcES}, true
	})
	c.Bulletin = bulletin.NewClient(h, opts, func() (types.Addr, bool) {
		return types.Addr{Node: c.Server, Service: types.SvcDB}, true
	})
	c.Ckpt = checkpoint.NewClient(h, opts, func() (types.Addr, bool) {
		return types.Addr{Node: c.Server, Service: types.SvcCkpt}, true
	})
	if c.OnStart != nil {
		c.OnStart(c)
	}
}

// Receive implements simhost.Process.
func (c *ClientProc) Receive(msg types.Message) {
	if msg.Type == heartbeat.MsgGSDAnnounce {
		if a, ok := msg.Payload.(heartbeat.GSDAnnounce); ok && a.Partition == c.Partition {
			c.Server = a.GSDNode
		}
		return
	}
	if c.Events.Handle(msg) || c.Bulletin.Handle(msg) || c.Ckpt.Handle(msg) ||
		c.Caller.Handle(msg) || c.Pending.Handle(msg) {
		return
	}
	if c.OnMessage != nil {
		c.OnMessage(c, msg)
	}
}

// OnStop implements simhost.Process.
func (c *ClientProc) OnStop() {}

// LoadJob loads a job onto a node through its PPM daemon; done (optional)
// receives the ack. Retries reuse one token, so the PPM's request dedup
// keeps a retried load exactly-once even though it is not idempotent.
func (c *ClientProc) LoadJob(node types.NodeID, job ppm.JobSpec, signed string, done func(ppm.LoadAck)) {
	job.Submitter = c.H.Self()
	c.Caller.Go(rpc.Call{
		Targets: func() []types.Addr {
			return []types.Addr{{Node: node, Service: types.SvcPPM}}
		},
		Send: func(token uint64, to types.Addr) {
			c.H.Send(to, types.AnyNIC, ppm.MsgLoad, ppm.LoadReq{Token: token, Job: job, Signed: signed})
		},
		Done: func(payload any, err error) {
			if done == nil {
				return
			}
			ack, ok := payload.(ppm.LoadAck)
			if !ok { // err != nil: the budget ran out
				ack = ppm.LoadAck{Job: job.ID, Err: "timeout"}
			}
			done(ack)
		},
	})
}

var _ simhost.Process = (*ClientProc)(nil)
