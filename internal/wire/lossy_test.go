package wire_test

// The reliability layer's proof under fire: the same four-node cluster as
// TestClusterOverLoopbackUDP, but every outbound datagram passes a
// deterministic (seeded) fault shim that drops 20%, duplicates 10% and
// reorders 10% of traffic. The kernel above the transport is unchanged —
// heartbeats, diagnosis and bulletin fetches assume delivery — so the
// cluster forming, electing its leader and answering a cluster-scope
// bulletin query is entirely the retransmission machinery's doing.
//
// A separate test round-trips a >64 KiB payload over real loopback at the
// default MTU, pinning fragmentation and reassembly end to end.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/codec"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/rpc"
	"repro/internal/types"
	"repro/internal/wire"
)

// lossyShim builds an OutboundFilter with seeded drop / duplicate / reorder
// behaviour. One shim guards one transport; the mutex makes the rand safe
// under concurrent sends, retransmit timers and ack timers.
func lossyShim(seed int64, drop, dup, reorder float64) wire.OutboundFilter {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(peer types.NodeID, plane int, data []byte, transmit func()) {
		mu.Lock()
		r := rng.Float64()
		delay := time.Duration(1+rng.Intn(20)) * time.Millisecond
		mu.Unlock()
		switch {
		case r < drop:
			// dropped
		case r < drop+dup:
			transmit()
			transmit()
		case r < drop+dup+reorder:
			time.AfterFunc(delay, transmit)
		default:
			transmit()
		}
	}
}

func TestClusterSurvivesLossyFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test; skipped under -short")
	}
	const planes = 2
	topo, err := config.Uniform(2, 2, planes)
	if err != nil {
		t.Fatal(err)
	}
	params, costs := fastWireParams(), fastWireCosts()

	regs := make([]*metrics.Registry, topo.NumNodes())
	transports := make([]*wire.Transport, topo.NumNodes())
	book := wire.NewBook()
	for i := range transports {
		regs[i] = metrics.NewRegistry()
		tr, err := wire.New(types.NodeID(i), nil,
			wire.WithPlanes(planes), wire.WithMetrics(regs[i]),
			wire.WithOutboundFilter(lossyShim(int64(1000+i), 0.20, 0.10, 0.10)))
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes := make([]*noded.Node, len(transports))
	for i, tr := range transports {
		tr.SetBook(book)
		n, err := noded.Start(tr.Node(), topo,
			noded.WithParams(params), noded.WithCosts(costs), noded.WithTransport(tr))
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// Phase 1: both GSDs converge on the full meta-group with partition 0
	// leading, despite one in five datagrams vanishing.
	view := func(idx int, part types.PartitionID) (alive int, leader types.PartitionID, ok bool) {
		nodes[idx].Do(func() {
			g := nodes[idx].Kernel().GSD(part)
			if g == nil || !nodes[idx].Host().Running(types.SvcGSD) {
				return
			}
			v := g.Member().View()
			alive, leader, ok = v.AliveCount(), v.Leader, true
		})
		return
	}
	waitFor(t, "stable membership through 20% loss", 60*time.Second, func() bool {
		a0, l0, ok0 := view(0, 0)
		a1, _, ok1 := view(2, 1)
		return ok0 && ok1 && a0 == 2 && a1 == 2 && l0 == 0
	})

	// Phase 2: a cluster-scope bulletin query resolves over the same lossy
	// fabric, aggregating detector samples from both partitions.
	cli := wire.NewRuntime(transports[0], "cli", 43)
	defer cli.Close()
	bc := bulletin.NewClient(cli, rpc.Budget(params.RPCTimeout), func() (types.Addr, bool) {
		return types.Addr{Node: topo.Partitions[0].Server, Service: types.SvcDB}, true
	})
	cli.Attach(func(msg types.Message) { bc.Handle(msg) })
	waitFor(t, "cluster-scope bulletin data through 20% loss", 60*time.Second, func() bool {
		type answer struct {
			ack bulletin.QueryAck
			ok  bool
		}
		ch := make(chan answer, 1)
		cli.Do(func() {
			bc.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
				ch <- answer{ack, ok}
			})
		})
		select {
		case a := <-ch:
			agg := bulletin.AggregateSnapshots(a.ack.Snapshots)
			return a.ok && len(a.ack.Missing) == 0 && agg.Nodes >= 3
		case <-time.After(10 * time.Second):
			t.Fatal("bulletin query never resolved")
			return false
		}
	})

	// The shim demonstrably hurt, and the reliability layer demonstrably
	// healed: with the cluster left heartbeating, every node accumulates
	// retransmissions and duplicates get dropped.
	waitFor(t, "retransmissions on every node and duplicate drops somewhere", 60*time.Second, func() bool {
		dups := 0.0
		for _, reg := range regs {
			if reg.Counter("wire.tx.retransmits").Value() == 0 {
				return false
			}
			dups += reg.Counter("wire.rx.dup_drops").Value()
		}
		return dups > 0
	})
	var retx, dups float64
	for _, reg := range regs {
		retx += reg.Counter("wire.tx.retransmits").Value()
		dups += reg.Counter("wire.rx.dup_drops").Value()
	}
	t.Logf("lossy run healed: %.0f retransmits, %.0f duplicate drops", retx, dups)
}

// blobRows is TestLargePayloadOverLoopback's payload, registered in the
// range the kernel leaves to tests.
type blobRows []string

func init() { codec.Register(0xfff1, blobRows(nil)) }

// TestLargePayloadOverLoopback round-trips a >64 KiB message at the default
// MTU over real sockets: it must fragment (the MTU is 60 KiB) and reassemble
// byte-perfectly.
func TestLargePayloadOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test; skipped under -short")
	}
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	book := wire.NewBook()
	var trs [2]*wire.Transport
	for i, reg := range []*metrics.Registry{regA, regB} {
		tr, err := wire.New(types.NodeID(i), nil, wire.WithPlanes(1), wire.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	trs[0].SetBook(book)
	trs[1].SetBook(book)

	blob := make(blobRows, 1500)
	for i := range blob {
		blob[i] = fmt.Sprintf("row-%04d-%s", i, strings.Repeat("y", 60))
	}
	msg := types.Message{
		From: types.Addr{Node: 0, Service: "cli"},
		To:   types.Addr{Node: 1, Service: "sink"},
		NIC:  0, Type: "blob", Payload: blob,
	}
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	size := len(body)
	if size <= 64*1024 {
		t.Fatalf("payload encodes to %d bytes, want > 64 KiB", size)
	}

	got := make(chan types.Message, 1)
	trs[1].Register(msg.To, func(m types.Message) { got <- m })
	if err := trs[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		back, ok := m.Payload.(blobRows)
		if !ok || len(back) != len(blob) {
			t.Fatalf("payload mangled: %T, %d entries", m.Payload, len(back))
		}
		for i := range blob {
			if back[i] != blob[i] {
				t.Fatalf("row %d corrupted after reassembly", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal(">64 KiB message never arrived")
	}
	if regA.Counter("wire.tx.frags").Value() < 2 {
		t.Errorf("tx.frags = %v, want >= 2 for a %d-byte body", regA.Counter("wire.tx.frags").Value(), size)
	}
	if regB.Counter("wire.rx.frag_reassembled").Value() != 1 {
		t.Errorf("rx.frag_reassembled = %v, want 1", regB.Counter("wire.rx.frag_reassembled").Value())
	}
}
