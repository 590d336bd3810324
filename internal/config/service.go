package config

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Message types of the configuration service.
const (
	MsgGet           = "cfg.get"
	MsgTopology      = "cfg.topology"
	MsgIntrospect    = "cfg.introspect"
	MsgIntrospectAck = "cfg.introspect.ack"
	MsgReconfig      = "cfg.reconfig"
	MsgReconfigAck   = "cfg.reconfig.ack"
)

// GetReq asks for the current topology.
type GetReq struct{ Token uint64 }

// GetAck returns the current topology and its version.
type GetAck struct {
	Token    uint64
	Topology *Topology
}

// IntrospectReq triggers the self-introspection mechanism: the service
// probes every node's agent and reports which answered.
type IntrospectReq struct{ Token uint64 }

// IntrospectAck lists discovered live and silent nodes, and the OS
// inventory the agents reported (the heterogeneous-resource layer of the
// paper's architecture).
type IntrospectAck struct {
	Token     uint64
	Alive     []types.NodeID
	Dead      []types.NodeID
	Inventory map[types.NodeID]string
}

// Reconfig operations.
const (
	OpAddNode    = "add-node"
	OpRemoveNode = "remove-node"
)

// ReconfigReq applies a dynamic reconfiguration.
type ReconfigReq struct {
	Token     uint64
	Op        string
	Node      types.NodeID
	Partition types.PartitionID // for add-node
}

// ReconfigAck reports the outcome and the new version.
type ReconfigAck struct {
	Token   uint64
	OK      bool
	Err     string
	Version int
}

// Reply tokens (rpc.Reply): the config client resolves these.
func (a GetAck) ReplyToken() uint64        { return a.Token }
func (a IntrospectAck) ReplyToken() uint64 { return a.Token }
func (a ReconfigAck) ReplyToken() uint64   { return a.Token }

func init() {
	codec.Register(144, GetReq{})
	codec.Register(145, GetAck{})
	codec.Register(146, IntrospectReq{})
	codec.Register(147, IntrospectAck{})
	codec.Register(148, ReconfigReq{})
	codec.Register(149, ReconfigAck{})
}

// Service is the configuration service daemon. One instance runs on the
// cluster master node (paper §4.4: "there are one instance of
// configuration service and one instance of security service").
// Configuration changes are published through the event service: consumers
// register types.EvConfigChange to watch for dynamic reconfiguration.
type Service struct {
	topo    *Topology
	params  Params
	publish func(types.Event) // overrides the default event-service route
	rt      rt.Runtime
	pending *rpc.Pending
	probeTO time.Duration
}

// NewService builds the daemon around an initial topology.
func NewService(topo *Topology, params Params, publish func(types.Event)) *Service {
	return &Service{topo: topo, params: params, publish: publish,
		probeTO: params.PartitionProbeTimeout}
}

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcConfig }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) {
	s.rt = h
	s.pending = rpc.NewPending(h)
}

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// Topology returns the service's current topology (exported for co-located
// wiring at boot).
func (s *Service) Topology() *Topology { return s.topo }

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	if s.pending.Handle(msg) {
		return
	}
	switch msg.Type {
	case MsgGet:
		req, ok := msg.Payload.(GetReq)
		if !ok {
			return
		}
		s.rt.Send(msg.From, types.AnyNIC, MsgTopology, GetAck{Token: req.Token, Topology: s.topo})
	case MsgIntrospect:
		req, ok := msg.Payload.(IntrospectReq)
		if !ok {
			return
		}
		s.introspect(msg.From, req.Token)
	case MsgReconfig:
		req, ok := msg.Payload.(ReconfigReq)
		if !ok {
			return
		}
		s.reconfig(msg.From, req)
	}
}

// introspect probes every node agent in parallel and replies once all
// probes have answered or timed out.
func (s *Service) introspect(replyTo types.Addr, token uint64) {
	total := len(s.topo.Nodes)
	if total == 0 {
		s.rt.Send(replyTo, types.AnyNIC, MsgIntrospectAck, IntrospectAck{Token: token})
		return
	}
	var alive, dead []types.NodeID
	inventory := make(map[types.NodeID]string, total)
	done := 0
	finish := func() {
		done++
		if done == total {
			s.rt.Send(replyTo, types.AnyNIC, MsgIntrospectAck,
				IntrospectAck{Token: token, Alive: alive, Dead: dead, Inventory: inventory})
		}
	}
	for _, n := range s.topo.Nodes {
		node := n.ID
		probeTok := s.pending.New(s.probeTO,
			func(payload any) {
				alive = append(alive, node)
				if ack, ok := payload.(simhost.ProbeAck); ok && ack.OS != "" {
					inventory[node] = ack.OS
				}
				finish()
			},
			func() { dead = append(dead, node); finish() })
		s.rt.Send(types.Addr{Node: node, Service: types.SvcAgent}, types.AnyNIC,
			simhost.MsgProbe, simhost.ProbeReq{Service: types.SvcAgent, Token: probeTok})
	}
}

func (s *Service) reconfig(replyTo types.Addr, req ReconfigReq) {
	newTopo, err := s.apply(req)
	ack := ReconfigAck{Token: req.Token, OK: err == nil}
	if err != nil {
		ack.Err = err.Error()
		ack.Version = s.topo.Version
	} else {
		s.topo = newTopo
		ack.Version = newTopo.Version
		ev := types.Event{
			Type:   types.EvConfigChange,
			Node:   req.Node,
			Detail: fmt.Sprintf("%s v%d", req.Op, newTopo.Version),
			When:   s.rt.Now(),
		}
		if s.publish != nil {
			s.publish(ev)
		} else if part, ok := s.topo.PartitionOf(s.rt.Node()); ok {
			// Default route: the event-service instance of the master
			// node's partition (any federation instance reaches every
			// consumer).
			s.rt.Send(types.Addr{Node: part.Server, Service: types.SvcES},
				types.AnyNIC, events.MsgPublish, events.PubReq{Event: ev})
		}
	}
	s.rt.Send(replyTo, types.AnyNIC, MsgReconfigAck, ack)
}

// apply computes the next topology version for a reconfiguration request.
func (s *Service) apply(req ReconfigReq) (*Topology, error) {
	switch req.Op {
	case OpAddNode:
		part, ok := s.topo.Partition(req.Partition)
		if !ok {
			return nil, fmt.Errorf("config: unknown %v", req.Partition)
		}
		if _, exists := s.topo.Node(req.Node); exists {
			return nil, fmt.Errorf("config: %v already present", req.Node)
		}
		parts := clonePartitions(s.topo)
		for i := range parts {
			if parts[i].ID == part.ID {
				parts[i].Members = append(parts[i].Members, req.Node)
			}
		}
		return s.rebuild(parts)
	case OpRemoveNode:
		ni, ok := s.topo.Node(req.Node)
		if !ok {
			return nil, fmt.Errorf("config: unknown %v", req.Node)
		}
		if ni.Role != types.RoleCompute {
			return nil, fmt.Errorf("config: cannot remove %s node %v", ni.Role, req.Node)
		}
		parts := clonePartitions(s.topo)
		for i := range parts {
			if parts[i].ID != ni.Partition {
				continue
			}
			members := parts[i].Members[:0]
			for _, m := range parts[i].Members {
				if m != req.Node {
					members = append(members, m)
				}
			}
			parts[i].Members = members
		}
		return s.rebuild(parts)
	default:
		return nil, fmt.Errorf("config: unknown op %q", req.Op)
	}
}

func (s *Service) rebuild(parts []PartitionInfo) (*Topology, error) {
	nt, err := Build(s.topo.NICs, s.topo.Master, parts)
	if err != nil {
		return nil, err
	}
	nt.Version = s.topo.Version + 1
	return nt, nil
}

func clonePartitions(t *Topology) []PartitionInfo {
	parts := make([]PartitionInfo, len(t.Partitions))
	for i, p := range t.Partitions {
		parts[i] = p
		parts[i].Members = append([]types.NodeID(nil), p.Members...)
		parts[i].Backups = append([]types.NodeID(nil), p.Backups...)
	}
	return parts
}

var _ simhost.Process = (*Service)(nil)
