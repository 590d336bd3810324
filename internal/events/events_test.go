package events_test

import (
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// consumerProc hosts an events client.
type consumerProc struct {
	name   string
	target types.NodeID
	client *events.Client
	got    []types.Event
	subID  uint64
}

func (p *consumerProc) Service() string { return p.name }
func (p *consumerProc) OnStop()         {}
func (p *consumerProc) Start(h *simhost.Handle) {
	p.client = events.NewClient(h, rpc.Budget(time.Second), func() (types.Addr, bool) {
		return types.Addr{Node: p.target, Service: types.SvcES}, true
	})
}
func (p *consumerProc) Receive(msg types.Message) { p.client.Handle(msg) }

func (p *consumerProc) subscribe(evTypes []types.EventType, part types.PartitionID, svc string) {
	p.client.Subscribe(evTypes, part, svc, func(ev types.Event) {
		p.got = append(p.got, ev)
	}, func(id uint64) { p.subID = id })
}

// rig: ES + ckpt instances on nodes 0 and 1 (partitions 0, 1); consumers
// and publishers elsewhere.
func rig(t *testing.T) (*sim.Engine, []*simhost.Host, []*events.Service) {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 5, simnet.DefaultParams(), metrics.NewRegistry())
	view := federation.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 1})
	hosts := make([]*simhost.Host, 5)
	for i := range hosts {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
	}
	svcs := make([]*events.Service, 2)
	for i := 0; i < 2; i++ {
		svcs[i] = events.NewService(types.PartitionID(i), view, time.Second, false)
		if _, err := hosts[i].Spawn(svcs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := hosts[i].Spawn(checkpoint.NewService(types.PartitionID(i), view, 250*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(500 * time.Millisecond)
	return eng, hosts, svcs
}

// publish spawns a transient client on host 4 and publishes one event
// through the given instance.
func publish(eng *sim.Engine, hosts []*simhost.Host, esNode types.NodeID, ev types.Event) {
	proc := &consumerProc{name: "p-" + string(ev.Type) + "-" + ev.Detail, target: esNode}
	if _, err := hosts[4].Spawn(proc); err != nil {
		panic(err)
	}
	eng.RunFor(200 * time.Millisecond)
	proc.client.Publish(ev)
	eng.RunFor(200 * time.Millisecond)
}

func TestSubscribeAndDeliver(t *testing.T) {
	eng, hosts, _ := rig(t)
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvNodeFail}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	if cons.subID == 0 {
		t.Fatal("subscription not acked")
	}
	publish(eng, hosts, 0, types.Event{Type: types.EvNodeFail, Node: 7, Detail: "a"})
	publish(eng, hosts, 0, types.Event{Type: types.EvNetFail, Node: 7, Detail: "b"}) // filtered out
	if len(cons.got) != 1 || cons.got[0].Node != 7 || cons.got[0].Type != types.EvNodeFail {
		t.Fatalf("delivered = %+v", cons.got)
	}
	if cons.got[0].Seq == 0 {
		t.Fatal("event not sequenced")
	}
}

func TestFederationCrossInstanceDelivery(t *testing.T) {
	eng, hosts, svcs := rig(t)
	// Consumer registers at instance 0; publisher publishes at instance 1.
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvJobFinish}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	// Registration replicated to instance 1.
	if svcs[1].Subscriptions() != 1 {
		t.Fatalf("replica registrations = %d", svcs[1].Subscriptions())
	}
	publish(eng, hosts, 1, types.Event{Type: types.EvJobFinish, Detail: "x"})
	if len(cons.got) != 1 {
		t.Fatalf("cross-instance delivery failed: %+v", cons.got)
	}
}

func TestPartitionAndServiceFilters(t *testing.T) {
	eng, hosts, _ := rig(t)
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvServiceFail}, 1, types.SvcES)
	eng.RunFor(300 * time.Millisecond)
	publish(eng, hosts, 0, types.Event{Type: types.EvServiceFail, Partition: 0, Service: types.SvcES, Detail: "p0"})
	publish(eng, hosts, 0, types.Event{Type: types.EvServiceFail, Partition: 1, Service: types.SvcDB, Detail: "db"})
	publish(eng, hosts, 0, types.Event{Type: types.EvServiceFail, Partition: 1, Service: types.SvcES, Detail: "hit"})
	if len(cons.got) != 1 || cons.got[0].Detail != "hit" {
		t.Fatalf("filtered delivery = %+v", cons.got)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	eng, hosts, svcs := rig(t)
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvNodeFail}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	cons.client.Unsubscribe(cons.subID)
	eng.RunFor(300 * time.Millisecond)
	publish(eng, hosts, 0, types.Event{Type: types.EvNodeFail, Detail: "late"})
	if len(cons.got) != 0 {
		t.Fatalf("delivery after unsubscribe: %+v", cons.got)
	}
	for i, s := range svcs {
		if s.Subscriptions() != 0 {
			t.Fatalf("instance %d still holds %d registrations", i, s.Subscriptions())
		}
	}
}

func TestRestartRestoresRegistrationsFromCheckpoint(t *testing.T) {
	eng, hosts, _ := rig(t)
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvNodeFail}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	// Kill instance 0 and restart it in recovery mode.
	if err := hosts[0].Kill(types.SvcES); err != nil {
		t.Fatal(err)
	}
	view := federation.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 1})
	restarted := events.NewService(0, view, time.Second, true)
	if _, err := hosts[0].Spawn(restarted); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * time.Second)
	if !restarted.Ready() {
		t.Fatal("restarted instance never became ready")
	}
	if restarted.Subscriptions() != 1 {
		t.Fatalf("restored registrations = %d", restarted.Subscriptions())
	}
	// Publishing through the restarted instance still reaches the consumer.
	publish(eng, hosts, 0, types.Event{Type: types.EvNodeFail, Detail: "post"})
	if len(cons.got) != 1 || cons.got[0].Detail != "post" {
		t.Fatalf("post-restart delivery = %+v", cons.got)
	}
}

func TestSupplierRegistrationBookkeeping(t *testing.T) {
	eng, hosts, svcs := rig(t)
	prod := &consumerProc{name: "prod", target: 0}
	if _, err := hosts[3].Spawn(prod); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	prod.client.RegisterSupplier([]types.EventType{types.EvNodeFail, types.EvNetFail})
	eng.RunFor(300 * time.Millisecond)
	_ = svcs // supplier registration is bookkeeping; no observable delivery change
}

// TestResubscribeReplacesRegistration: an identical re-subscription (same
// consumer, same filters) replaces the old registration — events are not
// delivered twice — and the replacement reaches federation peers too.
func TestResubscribeReplacesRegistration(t *testing.T) {
	eng, hosts, svcs := rig(t)
	cons := &consumerProc{name: "cons", target: 0}
	if _, err := hosts[2].Spawn(cons); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	cons.subscribe([]types.EventType{types.EvNodeFail}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	first := cons.subID
	if first == 0 {
		t.Fatal("first subscription not acked")
	}
	cons.subscribe([]types.EventType{types.EvNodeFail}, -1, "")
	eng.RunFor(300 * time.Millisecond)
	if cons.subID == 0 || cons.subID == first {
		t.Fatalf("re-subscription id = %d, want a fresh id (first was %d)", cons.subID, first)
	}
	if n := svcs[0].Subscriptions(); n != 1 {
		t.Fatalf("registrations at instance 0 = %d, want the replacement only", n)
	}
	if n := svcs[1].Subscriptions(); n != 1 {
		t.Fatalf("registrations at peer instance = %d, want the replacement only", n)
	}
	publish(eng, hosts, 0, types.Event{Type: types.EvNodeFail, Node: 3, Detail: "once"})
	if len(cons.got) != 1 {
		t.Fatalf("delivered %d copies, want exactly one", len(cons.got))
	}
	// A different filter set is a genuinely new registration, not a replace.
	cons.subscribe([]types.EventType{types.EvNodeFail}, 1, "")
	eng.RunFor(300 * time.Millisecond)
	if n := svcs[0].Subscriptions(); n != 2 {
		t.Fatalf("registrations = %d, want 2 after a different-filter subscribe", n)
	}
}
