package simhost

import (
	"time"

	"repro/internal/types"
)

// Agent message types. The OS agent is the per-node endpoint the kernel's
// diagnosis and recovery machinery talks to.
const (
	MsgProbe    = "agent.probe"
	MsgProbeAck = "agent.probe.ack"
	MsgSpawn    = "agent.spawn"
	MsgSpawnAck = "agent.spawn.ack"
)

// ProbeReq asks the agent whether a service is running on its node.
type ProbeReq struct {
	Service string
	Token   uint64 // correlates request and reply at the prober
}

// ProbeAck is the agent's answer: the agent being able to answer at all
// proves the node is alive; Running reports the queried daemon's status.
type ProbeAck struct {
	Node    types.NodeID
	Service string
	Running bool
	OS      string // host OS/architecture label (heterogeneity inventory)
	Token   uint64
}

// SpawnReq asks the agent to start a service from the host's factory
// registry.
type SpawnReq struct {
	Service string
	Spec    any
	Token   uint64
}

// SpawnAck reports the spawn result. OK means the process entered the
// process table; it still pays its exec latency before running.
type SpawnAck struct {
	Node    types.NodeID
	Service string
	OK      bool
	Err     string
	PID     types.ProcID
	Token   uint64
}

// Reply tokens (rpc.Reply): the GSD's spawn table, the heartbeat
// monitors, the probers and the config service resolve these acks.
func (a ProbeAck) ReplyToken() uint64 { return a.Token }
func (a SpawnAck) ReplyToken() uint64 { return a.Token }

func (h *Host) registerAgent() {
	h.net.Register(types.Addr{Node: h.id, Service: types.SvcAgent}, h.agentReceive)
}

// agentReceive dispatches agent requests. Probe replies go back over the
// same NIC the request arrived on, which lets the prober test each network
// plane independently during diagnosis.
func (h *Host) agentReceive(msg types.Message) {
	if !h.up {
		return
	}
	switch msg.Type {
	case MsgProbe:
		req, ok := msg.Payload.(ProbeReq)
		if !ok {
			return
		}
		nic := msg.NIC
		h.clk.AfterFunc(h.costs.AgentProbeDelay, func() {
			if !h.up {
				return
			}
			h.send(msg.From, nic, MsgProbeAck, ProbeAck{
				Node: h.id, Service: req.Service,
				Running: h.Running(req.Service), OS: h.os, Token: req.Token,
			})
		})
	case MsgSpawn:
		req, ok := msg.Payload.(SpawnReq)
		if !ok {
			return
		}
		h.clk.AfterFunc(h.costs.AgentExecDelay, func() {
			if !h.up {
				return
			}
			pid, err := h.SpawnService(req.Service, req.Spec)
			ack := SpawnAck{Node: h.id, Service: req.Service, OK: err == nil, PID: pid, Token: req.Token}
			if err != nil {
				ack.Err = err.Error()
			}
			h.send(msg.From, types.AnyNIC, MsgSpawnAck, ack)
		})
	}
}

// UsageModel produces synthetic physical-resource samples for a node.
type UsageModel interface {
	Sample(now time.Time) types.ResourceStats
}
