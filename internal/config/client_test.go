package config

import (
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// cfgClientProc hosts a config.Client inside a simulated process, the way
// admin tools and daemons embed it.
type cfgClientProc struct {
	h       *simhost.Handle
	client  *Client
	target  types.NodeID
	budget  time.Duration
	onStart func(p *cfgClientProc)
}

func (p *cfgClientProc) Service() string { return "cfgcli" }
func (p *cfgClientProc) OnStop()         {}
func (p *cfgClientProc) Start(h *simhost.Handle) {
	p.h = h
	if p.budget <= 0 {
		p.budget = 2 * time.Second
	}
	p.client = NewClient(h, rpc.Budget(p.budget), func() (types.Addr, bool) {
		return types.Addr{Node: p.target, Service: types.SvcConfig}, true
	})
	if p.onStart != nil {
		p.onStart(p)
	}
}
func (p *cfgClientProc) Receive(msg types.Message) { p.client.Handle(msg) }

func TestClientGet(t *testing.T) {
	eng, _, hosts, _ := rig(t)
	var got *Topology
	var gotOK bool
	proc := &cfgClientProc{target: 0, onStart: func(p *cfgClientProc) {
		p.client.Get(func(topo *Topology, ok bool) { got, gotOK = topo, ok })
	}}
	if _, err := hosts[5].Spawn(proc); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !gotOK || got == nil || got.NumNodes() != 6 || got.Version != 1 {
		t.Fatalf("Get: ok=%v topo=%+v", gotOK, got)
	}
}

func TestClientReconfig(t *testing.T) {
	eng, _, hosts, svc := rig(t)
	var ack ReconfigAck
	var ackOK bool
	proc := &cfgClientProc{target: 0, onStart: func(p *cfgClientProc) {
		p.client.Reconfig(OpAddNode, 6, 1, func(a ReconfigAck, ok bool) { ack, ackOK = a, ok })
	}}
	if _, err := hosts[5].Spawn(proc); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !ackOK || !ack.OK {
		t.Fatalf("Reconfig: ok=%v ack=%+v", ackOK, ack)
	}
	if ack.Version != 2 || svc.Topology().Version != 2 {
		t.Fatalf("version after add-node = %d (service %d), want 2", ack.Version, svc.Topology().Version)
	}
	if _, ok := svc.Topology().Node(6); !ok {
		t.Fatal("added node missing from topology")
	}
}

func TestClientIntrospect(t *testing.T) {
	eng, _, hosts, _ := rig(t)
	hosts[4].PowerOff()
	var ack IntrospectAck
	var ackOK bool
	proc := &cfgClientProc{target: 0, budget: 30 * time.Second, onStart: func(p *cfgClientProc) {
		p.client.Introspect(func(a IntrospectAck, ok bool) { ack, ackOK = a, ok })
	}}
	if _, err := hosts[5].Spawn(proc); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !ackOK {
		t.Fatal("Introspect exhausted its budget")
	}
	if len(ack.Alive) != 5 || len(ack.Dead) != 1 || ack.Dead[0] != 4 {
		t.Fatalf("introspection: alive=%v dead=%v", ack.Alive, ack.Dead)
	}
}

// When the resolved master never answers, the call fails within the budget
// instead of hanging.
func TestClientBudgetExhaustion(t *testing.T) {
	eng, _, hosts, _ := rig(t)
	var calls int
	var lastOK bool
	proc := &cfgClientProc{target: 3 /* no config service there */, budget: time.Second,
		onStart: func(p *cfgClientProc) {
			p.client.Get(func(topo *Topology, ok bool) { calls++; lastOK = ok })
		}}
	if _, err := hosts[5].Spawn(proc); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Second)
	if calls != 1 || lastOK {
		t.Fatalf("budget exhaustion: calls=%d ok=%v, want one failed completion", calls, lastOK)
	}
}

func TestServiceRecoveryDeadline(t *testing.T) {
	p := DefaultParams()
	// The recovery window derives from the RPC budget: 3*RPCTimeout+5s.
	if got, want := p.ServiceRecoveryDeadline(), 3*p.RPCTimeout+5*time.Second; got != want {
		t.Fatalf("derived deadline = %v, want %v", got, want)
	}
	p.RPCTimeout = 2 * time.Second
	if got, want := p.ServiceRecoveryDeadline(), 11*time.Second; got != want {
		t.Fatalf("derived deadline after RPCTimeout change = %v, want %v", got, want)
	}
}
