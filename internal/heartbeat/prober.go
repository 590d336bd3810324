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
// with the first ack, or after timeout with NodeAlive=false. A reply of
// another type is no answer and reads as the timeout.
func (p *Prober) Probe(node types.NodeID, service string, timeout time.Duration, done func(ProbeResult)) {
	silent := func() { done(ProbeResult{Node: node}) }
	token := p.pending.New(timeout,
		func(payload any) {
			ack, ok := payload.(simhost.ProbeAck)
			if !ok {
				silent()
				return
			}
			done(ProbeResult{Node: node, NodeAlive: true, ServiceRunning: ack.Running})
		},
		silent)
	for nic := 0; nic < p.nics; nic++ {
		p.rt.Send(types.Addr{Node: node, Service: types.SvcAgent}, nic,
			simhost.MsgProbe, simhost.ProbeReq{Service: service, Token: token})
	}
}

// Handle routes an incoming probe ack, reporting whether msg answered one
// of the prober's probes (see rpc.Pending.Handle).
func (p *Prober) Handle(msg types.Message) bool { return p.pending.Handle(msg) }
