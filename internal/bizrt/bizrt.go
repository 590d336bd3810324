// Package bizrt implements the business application runtime environment,
// the fourth user environment of the paper (§3): "It manages multi-tier
// business applications and guarantees their high-availability and
// load-balancing." Built purely on kernel interfaces — instances are
// processes placed on compute nodes, liveness comes from event-service
// notifications and host process events, failed instances are restarted on
// healthy nodes, and client requests are balanced across each tier's
// replicas.
package bizrt

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Request/response message types between tiers.
const (
	MsgRequest  = "biz.req"
	MsgResponse = "biz.resp"
)

// Request travels down the tier chain (front → middle → ... → last) and is
// answered back to the original client.
type Request struct {
	ID       uint64
	App      string
	Tier     int        // index of the tier currently addressed
	ReplyTo  types.Addr // the end client
	IssuedAt time.Time  // client stamp; echoed for latency accounting
	Hops     []types.NodeID
}

// Response answers a request.
type Response struct {
	ID       uint64
	App      string
	OK       bool
	IssuedAt time.Time      // echoed from the request
	Hops     []types.NodeID // instance nodes that served each tier
}

func init() {
	codec.Register(288, Request{})
	codec.Register(289, Response{})
}

// TierSpec describes one tier of a business application.
type TierSpec struct {
	Name        string
	Replicas    int
	ServiceTime time.Duration // per-request processing time at this tier
}

// AppSpec is a multi-tier business application.
type AppSpec struct {
	Name  string
	Tiers []TierSpec
	// SLA, when nonzero, is the end-to-end response-time agreement; the
	// runtime manager tracks violations from client latency reports (the
	// paper's application-state detector carries "information related to
	// system level agreement" for exactly this consumer).
	SLA time.Duration
}

// instanceService names a tier instance's process ("biz/<app>/<tier>/<i>").
func instanceService(app string, tier, idx int) string {
	return fmt.Sprintf("biz/%s/%d/%d", app, tier, idx)
}

// Instance is one replica of one tier: it serves requests after its
// tier's service time, forwarding to the next tier (chosen by its local
// balancer state) or answering the client from the last tier.
type Instance struct {
	app    string
	tier   int
	idx    int
	spec   AppSpec
	mgr    types.NodeID // manager node: consulted for downstream replica sets
	h      *simhost.Handle
	next   []types.Addr // downstream replica addresses (pushed by the manager)
	rr     int
	Served uint64
}

// NewInstance builds a tier instance.
func NewInstance(spec AppSpec, tier, idx int, mgr types.NodeID) *Instance {
	return &Instance{app: spec.Name, tier: tier, idx: idx, spec: spec, mgr: mgr}
}

// Service implements simhost.Process.
func (in *Instance) Service() string { return instanceService(in.app, in.tier, in.idx) }

// Start implements simhost.Process.
func (in *Instance) Start(h *simhost.Handle) { in.h = h }

// OnStop implements simhost.Process.
func (in *Instance) OnStop() {}

// MsgRoutes is the manager -> instance push of downstream replicas.
const MsgRoutes = "biz.routes"

// Routes carries the current replica addresses of the next tier.
type Routes struct {
	App  string
	Tier int // tier these routes lead to
	Next []types.Addr
}

func init() { codec.Register(290, Routes{}) }

// Receive implements simhost.Process.
func (in *Instance) Receive(msg types.Message) {
	switch msg.Type {
	case MsgRoutes:
		if r, ok := msg.Payload.(Routes); ok && r.App == in.app && r.Tier == in.tier+1 {
			in.next = r.Next
		}
	case MsgRequest:
		req, ok := msg.Payload.(Request)
		if !ok || req.App != in.app {
			return
		}
		in.h.After(in.spec.Tiers[in.tier].ServiceTime, func() { in.finish(req) })
	}
}

func (in *Instance) finish(req Request) {
	in.Served++
	req.Hops = append(req.Hops, in.h.Node())
	if in.tier == len(in.spec.Tiers)-1 {
		// Last tier: answer the client.
		in.h.Send(req.ReplyTo, types.AnyNIC, MsgResponse, Response{
			ID: req.ID, App: req.App, OK: true, IssuedAt: req.IssuedAt, Hops: req.Hops,
		})
		return
	}
	if len(in.next) == 0 {
		// No healthy downstream replica known: fail the request.
		in.h.Send(req.ReplyTo, types.AnyNIC, MsgResponse, Response{
			ID: req.ID, App: req.App, OK: false, IssuedAt: req.IssuedAt, Hops: req.Hops,
		})
		return
	}
	// Round-robin across downstream replicas.
	target := in.next[in.rr%len(in.next)]
	in.rr++
	req.Tier = in.tier + 1
	in.h.Send(target, types.AnyNIC, MsgRequest, req)
}

var _ simhost.Process = (*Instance)(nil)
