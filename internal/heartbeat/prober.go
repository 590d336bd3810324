package heartbeat

import (
	"time"

	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// ProbeResult is the outcome of probing one node's agent about a service.
type ProbeResult struct {
	Node           types.NodeID
	NodeAlive      bool // the agent answered on at least one interface
	ServiceRunning bool // the queried daemon was in the process table
}

// Prober issues agent probes over every interface and reports the first
// answer (or silence). The GSD uses it to probe down nodes for
// reintegration and takeover candidates before a spawn, and a WD to relay
// an indirect probe; the Monitor's diagnosis keeps its own probe path.
type Prober struct {
	rt      rt.Runtime
	pending *rpc.Pending
	nics    int
}

// NewProber builds a prober sending over nics interfaces.
func NewProber(r rt.Runtime, nics int) *Prober {
	return &Prober{rt: r, pending: rpc.NewPending(r), nics: nics}
}

// Probe asks node's agent whether service runs, invoking done exactly once:
// with the first ack, or after timeout with NodeAlive=false.
func (p *Prober) Probe(node types.NodeID, service string, timeout time.Duration, done func(ProbeResult)) {
	token := p.pending.New(timeout,
		func(payload any) {
			ack := payload.(simhost.ProbeAck)
			done(ProbeResult{Node: node, NodeAlive: true, ServiceRunning: ack.Running})
		},
		func() {
			done(ProbeResult{Node: node})
		})
	for nic := 0; nic < p.nics; nic++ {
		p.rt.Send(types.Addr{Node: node, Service: types.SvcAgent}, nic,
			simhost.MsgProbe, simhost.ProbeReq{Service: service, Token: token})
	}
}

// HandleProbeAck routes an incoming ack; late and duplicate acks are
// ignored.
func (p *Prober) HandleProbeAck(ack simhost.ProbeAck) {
	p.pending.Resolve(ack.Token, ack)
}
