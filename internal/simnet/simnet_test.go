package simnet

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/types"
)

func newNet(t *testing.T, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.New(1)
	net := New(eng, eng.Rand(), nodes, DefaultParams(), metrics.NewRegistry())
	return eng, net
}

func addr(n int, svc string) types.Addr { return types.Addr{Node: types.NodeID(n), Service: svc} }

func TestDeliverBasic(t *testing.T) {
	eng, net := newNet(t, 2)
	var got []types.Message
	net.Register(addr(1, "gsd"), func(m types.Message) { got = append(got, m) })
	err := net.Send(types.Message{From: addr(0, "wd"), To: addr(1, "gsd"), NIC: 0, Type: "hb"})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].Type != "hb" || got[0].NIC != 0 {
		t.Fatalf("delivery mismatch: %+v", got)
	}
}

func TestLatencyApplied(t *testing.T) {
	eng := sim.New(1)
	p := Params{NICs: 1, BaseLatency: time.Millisecond}
	net := New(eng, eng.Rand(), 2, p, nil)
	var at time.Duration
	net.Register(addr(1, "x"), func(types.Message) { at = eng.Elapsed() })
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", at)
	}
}

func TestAnyNICPicksHealthyPlane(t *testing.T) {
	eng, net := newNet(t, 2)
	var gotNIC = -99
	net.Register(addr(1, "x"), func(m types.Message) { gotNIC = m.NIC })
	if err := net.SetNICUp(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: types.AnyNIC}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if gotNIC != 1 {
		t.Fatalf("AnyNIC chose %d, want 1 (NIC 0 down)", gotNIC)
	}
}

func TestSpecificNICDownDropsSilently(t *testing.T) {
	eng, net := newNet(t, 2)
	delivered := false
	net.Register(addr(1, "x"), func(types.Message) { delivered = true })
	// Destination NIC down: the datagram leaves the sender but is lost.
	if err := net.SetNICUp(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 2}); err != nil {
		t.Fatalf("send over remote-down NIC should be silent, got %v", err)
	}
	eng.Run()
	if delivered {
		t.Fatal("message crossed a down NIC")
	}
	if got := net.Metrics().Counter("net.lost").Value(); got != 1 {
		t.Fatalf("lost counter = %g, want 1", got)
	}
}

func TestSourceNICDownErrors(t *testing.T) {
	_, net := newNet(t, 2)
	if err := net.SetNICUp(0, 1, false); err != nil {
		t.Fatal(err)
	}
	err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 1})
	if err == nil {
		t.Fatal("send from a down local NIC should fail locally")
	}
}

func TestNodeDownCannotSend(t *testing.T) {
	_, net := newNet(t, 2)
	net.SetNodeUp(0, false)
	err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0})
	if err == nil {
		t.Fatal("send from a powered-off node should fail")
	}
}

func TestNodeDownCannotReceive(t *testing.T) {
	eng, net := newNet(t, 2)
	delivered := false
	net.Register(addr(1, "x"), func(types.Message) { delivered = true })
	net.SetNodeUp(1, false)
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered {
		t.Fatal("powered-off node received a message")
	}
}

func TestInFlightLossWhenDestinationDies(t *testing.T) {
	eng, net := newNet(t, 2)
	delivered := false
	net.Register(addr(1, "x"), func(types.Message) { delivered = true })
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	net.SetNodeUp(1, false) // dies while the message is in flight
	eng.Run()
	if delivered {
		t.Fatal("message delivered to a node that died in flight")
	}
	if got := net.Metrics().Counter("net.dropped_in_flight").Value(); got != 1 {
		t.Fatalf("dropped_in_flight = %g, want 1", got)
	}
}

func TestPlaneFailure(t *testing.T) {
	eng, net := newNet(t, 2)
	var gotNIC = -99
	net.Register(addr(1, "x"), func(m types.Message) { gotNIC = m.NIC })
	if err := net.SetPlaneUp(0, false); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: types.AnyNIC}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if gotNIC != 1 {
		t.Fatalf("plane-0 failure should route via NIC 1, got %d", gotNIC)
	}
}

func TestCutSeversAllPlanes(t *testing.T) {
	eng, net := newNet(t, 3)
	delivered := 0
	net.Register(addr(1, "x"), func(types.Message) { delivered++ })
	net.Register(addr(2, "x"), func(types.Message) { delivered++ })
	net.Cut(0, 1, true)
	for nic := 0; nic < 3; nic++ {
		if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: nic}); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated pair still works.
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(2, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d messages, want only the 0->2 one", delivered)
	}
	net.Cut(0, 1, false)
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 2 {
		t.Fatal("restored cut did not deliver")
	}
}

func TestRegisterReplaceAndUnregister(t *testing.T) {
	eng, net := newNet(t, 2)
	a, b := 0, 0
	net.Register(addr(1, "x"), func(types.Message) { a++ })
	net.Register(addr(1, "x"), func(types.Message) { b++ }) // replace
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a != 0 || b != 1 {
		t.Fatalf("replacement handler not used: a=%d b=%d", a, b)
	}
	net.Unregister(addr(1, "x"))
	if net.Registered(addr(1, "x")) {
		t.Fatal("still registered after Unregister")
	}
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b != 1 {
		t.Fatal("unregistered handler received a message")
	}
	if got := net.Metrics().Counter("net.no_handler").Value(); got != 1 {
		t.Fatalf("no_handler = %g, want 1", got)
	}
}

func TestByteAccounting(t *testing.T) {
	eng, net := newNet(t, 3)
	net.Register(addr(1, "x"), func(types.Message) {})
	net.Register(addr(2, "x"), func(types.Message) {})
	// A registered payload weighs the envelope plus its encoding.
	app := types.AppState{Node: 1, Name: "web", Alive: true}
	for _, m := range []types.Message{
		{From: addr(0, "x"), To: addr(1, "x"), Type: "hb"},
		{From: addr(0, "x"), To: addr(2, "x"), Type: "hb"},
		{From: addr(0, "x"), To: addr(2, "x"), Type: "ack", Payload: app},
		{From: addr(1, "x"), To: addr(1, "x"), Type: "ack", Payload: app},
	} {
		if err := net.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	const env = codec.EnvelopeOverhead
	enc, err := codec.AppendPayload(nil, app)
	if err != nil {
		t.Fatal(err)
	}
	ack := float64(env + len(enc))
	for name, want := range map[string]float64{
		"net.msgs": 4, "net.bytes": 2*env + 2*ack, "net.delivered": 4, "net.lost": 0,
		"net.msgs.hb": 2, "net.bytes.hb": 2 * env,
		"net.msgs.ack": 2, "net.bytes.ack": 2 * ack,
		"net.rx.node1": 2, "net.rx.node2": 2,
	} {
		if got := net.Metrics().Counter(name).Value(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestInvalidNIC(t *testing.T) {
	_, net := newNet(t, 2)
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 7}); err == nil {
		t.Fatal("invalid NIC accepted")
	}
	if err := net.SetNICUp(0, 9, false); err == nil {
		t.Fatal("SetNICUp on invalid NIC accepted")
	}
	if err := net.SetPlaneUp(9, false); err == nil {
		t.Fatal("SetPlaneUp on invalid plane accepted")
	}
}

func TestTraceHook(t *testing.T) {
	eng, net := newNet(t, 2)
	var traced []string
	net.Trace = func(m types.Message) { traced = append(traced, m.Type) }
	net.Register(addr(1, "x"), func(types.Message) {})
	if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0, Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(traced) != 1 || traced[0] != "ping" {
		t.Fatalf("trace = %v", traced)
	}
}

func TestPerPlaneLatency(t *testing.T) {
	eng := sim.New(1)
	p := Params{
		NICs:         3,
		BaseLatency:  time.Millisecond,
		PlaneLatency: []time.Duration{100 * time.Microsecond, 0, 10 * time.Millisecond},
	}
	net := New(eng, eng.Rand(), 2, p, nil)
	arrivals := map[int]time.Duration{}
	net.Register(addr(1, "x"), func(m types.Message) { arrivals[m.NIC] = eng.Elapsed() })
	for nic := 0; nic < 3; nic++ {
		if err := net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: nic}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if arrivals[0] != 100*time.Microsecond {
		t.Fatalf("fast plane latency = %v", arrivals[0])
	}
	if arrivals[1] != time.Millisecond { // fallback to BaseLatency
		t.Fatalf("default plane latency = %v", arrivals[1])
	}
	if arrivals[2] != 10*time.Millisecond {
		t.Fatalf("slow plane latency = %v", arrivals[2])
	}
}

func TestFilterSelectiveLoss(t *testing.T) {
	eng, net := newNet(t, 2)
	var got []string
	net.Register(addr(1, "x"), func(m types.Message) { got = append(got, m.Type) })
	net.Filter = func(m types.Message) bool { return m.Type != "blocked" }
	_ = net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0, Type: "blocked"})
	_ = net.Send(types.Message{From: addr(0, "x"), To: addr(1, "x"), NIC: 0, Type: "ok"})
	eng.Run()
	if len(got) != 1 || got[0] != "ok" {
		t.Fatalf("delivered = %v", got)
	}
	if net.Metrics().Counter("net.lost").Value() != 1 {
		t.Fatal("filtered message not accounted as lost")
	}
}
