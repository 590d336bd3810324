package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/types"
)

// testView builds a view of n alive partitions where partition p's server
// is node p — a convenient identity for driving engines directly.
func testView(n int, version uint64) federation.View {
	v := federation.View{Version: version, Entries: make(map[types.PartitionID]federation.Entry, n)}
	for p := 0; p < n; p++ {
		v.Entries[types.PartitionID(p)] = federation.Entry{Node: types.NodeID(p), Alive: true}
	}
	return v
}

// net is a tiny in-memory harness: engines keyed by partition (node p ==
// partition p), digest/updates exchanged synchronously per round.
type net struct {
	engines map[types.PartitionID]*Engine
}

func newNet(n int, cfg Config) *net {
	w := &net{engines: make(map[types.PartitionID]*Engine, n)}
	v := testView(n, 1)
	for p := 0; p < n; p++ {
		c := cfg
		c.Part = types.PartitionID(p)
		c.Seed = int64(p) + 1
		e := NewEngine(c)
		e.SetView(v)
		w.engines[c.Part] = e
	}
	return w
}

// round runs one synchronous gossip round for every engine, including the
// Reply leg, and returns total digests sent.
func (w *net) round() int {
	sent := 0
	for p, e := range w.engines {
		dig := e.Digest()
		for _, peer := range e.PickPeers() {
			sent++
			pe := w.engines[types.PartitionID(peer)]
			ups, has, wantReply := pe.HandleDigest(dig, false)
			if has {
				e.HandleUpdates(ups)
			}
			if wantReply {
				back, hasBack, again := e.HandleDigest(pe.Digest(), true)
				if again {
					panic("reply digest requested another reply")
				}
				if hasBack {
					pe.HandleUpdates(back)
				}
			}
		}
		_ = p
	}
	return sent
}

func TestConvergesViewAndDeltas(t *testing.T) {
	const n = 16
	w := newNet(n, Config{Fanout: 3, DigestCap: 32})

	// Partition 0 learns a newer view and authors three deltas.
	v2 := testView(n, 7)
	w.engines[0].SetView(v2)
	for seq := uint64(1); seq <= 3; seq++ {
		w.engines[0].AddDelta(0, seq, []byte(fmt.Sprintf("delta-%d", seq)))
	}

	converged := func() bool {
		for _, e := range w.engines {
			if e.View().Version != 7 || e.SeqKnown(0) != 3 {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; rounds < 20 && !converged(); rounds++ {
		w.round()
	}
	if !converged() {
		t.Fatalf("not converged after %d rounds", rounds)
	}
	// Epidemic spread should need O(log n) rounds, far under n.
	if rounds > 10 {
		t.Fatalf("convergence took %d rounds for %d partitions", rounds, n)
	}
}

func TestPeerSelectionDeterministic(t *testing.T) {
	mk := func() *Engine {
		e := NewEngine(Config{Part: 2, Fanout: 3, Seed: 42})
		e.SetView(testView(10, 1))
		return e
	}
	a, b := mk(), mk()
	for r := 0; r < 50; r++ {
		pa, pb := a.PickPeers(), b.PickPeers()
		if fmt.Sprint(pa) != fmt.Sprint(pb) {
			t.Fatalf("round %d: %v != %v", r, pa, pb)
		}
	}
}

func TestFanoutBound(t *testing.T) {
	e := NewEngine(Config{Part: 0, Fanout: 3, Seed: 1})
	e.SetView(testView(20, 1))
	for r := 0; r < 100; r++ {
		peers := e.PickPeers()
		if len(peers) > 3 {
			t.Fatalf("round %d picked %d peers, fanout 3", r, len(peers))
		}
		seen := make(map[types.NodeID]bool)
		for _, p := range peers {
			if p == 0 {
				t.Fatal("picked self")
			}
			if seen[p] {
				t.Fatalf("round %d picked %v twice", r, p)
			}
			seen[p] = true
		}
	}
	if st := e.Stats(); st.MaxFanout > 3 {
		t.Fatalf("MaxFanout = %d", st.MaxFanout)
	}
}

func TestFanoutClampedToAlivePeers(t *testing.T) {
	e := NewEngine(Config{Part: 0, Fanout: 8, Seed: 1})
	v := testView(4, 1)
	en := v.Entries[3]
	en.Alive = false
	v.Entries[3] = en
	e.SetView(v)
	peers := e.PickPeers()
	if len(peers) != 2 { // partitions 1, 2 (3 is dead, 0 is self)
		t.Fatalf("peers = %v, want two alive peers", peers)
	}
}

func TestDigestCapTruncationAndGapRepair(t *testing.T) {
	cfg := Config{Fanout: 2, DigestCap: 8}
	src := NewEngine(Config{Part: 0, Fanout: 2, DigestCap: 8, Seed: 1})
	src.SetView(testView(2, 1))
	for seq := uint64(1); seq <= 50; seq++ {
		src.AddDelta(0, seq, []byte{byte(seq)})
	}

	fresh := NewEngine(Config{Part: 1, Fanout: cfg.Fanout, DigestCap: cfg.DigestCap, Seed: 2})
	fresh.SetView(testView(2, 1))

	ups, has, _ := src.HandleDigest(fresh.Digest(), false)
	if !has {
		t.Fatal("source had nothing to push")
	}
	if len(ups.Deltas) != 8 || ups.Deltas[0].Seq != 43 || ups.Deltas[7].Seq != 50 {
		t.Fatalf("pushed suffix = %+v, want seqs 43..50", ups.Deltas)
	}
	if src.Stats().Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", src.Stats().Truncated)
	}

	// Give the fresh engine partial history so the jump is a detectable gap.
	fresh.AddDelta(0, 1, []byte{1})
	ap := fresh.HandleUpdates(ups)
	if len(ap.Gapped) != 1 || ap.Gapped[0] != 0 {
		t.Fatalf("Gapped = %v, want [0]", ap.Gapped)
	}
	if fresh.SeqKnown(0) != 50 {
		t.Fatalf("SeqKnown = %d, want 50 (suffix adopted for onward gossip)", fresh.SeqKnown(0))
	}
	if fresh.Stats().Gaps != 1 {
		t.Fatalf("Gaps = %d", fresh.Stats().Gaps)
	}
}

func TestReplyDigestTerminates(t *testing.T) {
	ahead := NewEngine(Config{Part: 0, Seed: 1})
	behind := NewEngine(Config{Part: 1, Seed: 2})
	ahead.SetView(testView(2, 5))
	behind.SetView(testView(2, 1))
	behind.AddDelta(1, 1, []byte("x")) // behind knows something ahead lacks

	// behind's digest reaches ahead: ahead pushes the view and asks for a
	// counter-digest (it saw seq 1 advertised for source 1).
	ups, has, wantReply := ahead.HandleDigest(behind.Digest(), false)
	if !has || !wantReply {
		t.Fatalf("has=%v wantReply=%v, want true/true", has, wantReply)
	}
	behind.HandleUpdates(ups)

	// The counter-digest is marked Reply: ahead's missing suffix comes
	// back, but no third digest may be requested.
	back, hasBack, again := behind.HandleDigest(ahead.Digest(), true)
	_ = back
	if again {
		t.Fatal("reply digest requested another reply; exchange must terminate")
	}
	if hasBack {
		ahead.HandleUpdates(back)
	}
	if ahead.SeqKnown(1) != 1 {
		t.Fatalf("ahead did not learn the reply suffix, SeqKnown=%d", ahead.SeqKnown(1))
	}
	if behind.View().Version != 5 {
		t.Fatalf("behind did not adopt view, version=%d", behind.View().Version)
	}
}

func TestAddDeltaDupAndJump(t *testing.T) {
	e := NewEngine(Config{Part: 0})
	if !e.AddDelta(1, 1, nil) || !e.AddDelta(1, 2, nil) {
		t.Fatal("fresh sequences rejected")
	}
	if e.AddDelta(1, 2, nil) || e.AddDelta(1, 1, nil) {
		t.Fatal("duplicate accepted")
	}
	// Forward jump resets the retained suffix to the new entry.
	if !e.AddDelta(1, 10, []byte("j")) {
		t.Fatal("jump rejected")
	}
	if e.SeqKnown(1) != 10 {
		t.Fatalf("SeqKnown = %d", e.SeqKnown(1))
	}
	d := e.Digest()
	if len(d.Deltas) != 1 || d.Deltas[0].Seq != 10 {
		t.Fatalf("digest = %+v", d)
	}
}

// TestViewChangeResetsMovedSourceStream pins the stream-identity rule: a
// partition whose hosting node changed is a new delta source, so its
// replacement primary's stream — restarting at sequence 1 — must be
// accepted, not shadowed by the dead host's higher sequence.
func TestViewChangeResetsMovedSourceStream(t *testing.T) {
	e := NewEngine(Config{Part: 0})
	e.SetView(testView(3, 1))
	for s := uint64(1); s <= 5; s++ {
		e.AddDelta(1, s, []byte("old"))
	}
	if e.SeqKnown(1) != 5 {
		t.Fatalf("SeqKnown = %d", e.SeqKnown(1))
	}

	// Partition 1 migrates to a different node; partition 2 stays put.
	e.AddDelta(2, 3, []byte("kept"))
	nv := testView(3, 2)
	en := nv.Entries[1]
	en.Node = 99
	nv.Entries[1] = en
	if !e.SetView(nv) {
		t.Fatal("newer view rejected")
	}
	if e.SeqKnown(1) != 0 {
		t.Fatalf("moved source kept stale SeqKnown %d", e.SeqKnown(1))
	}
	if e.SeqKnown(2) != 3 {
		t.Fatalf("unmoved source lost its log (SeqKnown %d)", e.SeqKnown(2))
	}
	// The replacement primary's fresh stream is accepted from 1.
	if !e.AddDelta(1, 1, []byte("new")) {
		t.Fatal("fresh stream rejected after migration")
	}

	// Same rule on the gossip adoption path (HandleUpdates view push).
	e2 := NewEngine(Config{Part: 0})
	e2.SetView(testView(3, 1))
	for s := uint64(1); s <= 5; s++ {
		e2.AddDelta(1, s, []byte("old"))
	}
	ap := e2.HandleUpdates(Updates{From: 2, View: &nv,
		Deltas: []Delta{{Src: 1, Seq: 1, Data: []byte("new")}}})
	if ap.View == nil {
		t.Fatal("view not adopted via updates")
	}
	if len(ap.Deltas) != 1 || e2.SeqKnown(1) != 1 {
		t.Fatalf("fresh stream not applied with the view (deltas %v, SeqKnown %d)",
			ap.Deltas, e2.SeqKnown(1))
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	a := NewEngine(Config{Part: 3, Seed: 7})
	b := NewEngine(Config{Part: 3, Seed: 7})
	max := 250 * time.Millisecond
	for i := 0; i < 200; i++ {
		ja, jb := a.Jitter(max), b.Jitter(max)
		if ja != jb {
			t.Fatalf("draw %d: %v != %v", i, ja, jb)
		}
		if ja < -max || ja > max {
			t.Fatalf("jitter %v outside ±%v", ja, max)
		}
	}
	if a.Jitter(0) != 0 {
		t.Fatal("zero max must yield zero jitter")
	}
}

func TestMessagesPerRoundBounded(t *testing.T) {
	const n, fanout = 24, 3
	w := newNet(n, Config{Fanout: fanout})
	// Steady state (everything converged): each round is exactly n*fanout
	// digests and zero updates.
	w.round()
	before := make(map[types.PartitionID]Stats, n)
	for p, e := range w.engines {
		before[p] = e.Stats()
	}
	sent := w.round()
	if sent != n*fanout {
		t.Fatalf("digests per round = %d, want %d", sent, n*fanout)
	}
	for p, e := range w.engines {
		st := e.Stats()
		if st.UpdatesTx != before[p].UpdatesTx {
			t.Fatalf("partition %v pushed updates in steady state", p)
		}
	}
}
