package cluster

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/membership"
	"repro/internal/simhost"
	"repro/internal/types"
)

// ringFault wraps a three-partition fast cluster whose filter can swallow
// ring beats of partition 1's GSD (watched by partition 2's) and hold
// back its agent's probe answers to partition 2's GSD.
type ringFault struct {
	c          *Cluster
	victim     types.NodeID // partition 1's server, the watched GSD
	watcher    types.NodeID // partition 2's server, its ring successor
	dropBeats  int          // ring beats still to swallow
	dropped    int
	ackDelay   time.Duration
	delayedAck int
}

func newRingFault(t *testing.T) *ringFault {
	t.Helper()
	c, err := Build(Spec{Partitions: 3, PartitionSize: 2, NICs: 2, Seed: 1, Params: config.FastParams()})
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	c.RunFor(5 * time.Second)
	r := &ringFault{c: c, victim: c.Topo.Partitions[1].Server, watcher: c.Topo.Partitions[2].Server}
	c.Net.Filter = func(m types.Message, deliver func()) {
		if m.From.Node != r.victim || m.To.Node != r.watcher {
			deliver()
			return
		}
		switch {
		case m.Type == membership.MsgMetaHB && r.dropBeats > 0:
			r.dropBeats--
			r.dropped++
		case m.Type == simhost.MsgProbeAck && r.ackDelay > 0:
			r.delayedAck++
			c.Engine.AfterFunc(r.ackDelay, deliver)
		default:
			deliver()
		}
	}
	return r
}

// views reports every partition GSD's ring view.
func (r *ringFault) views(t *testing.T) []*membership.View {
	t.Helper()
	var out []*membership.View
	for _, p := range r.c.Topo.Partitions {
		out = append(out, partitionDaemon(t, r.c, p.Server).Member().View())
	}
	return out
}

// TestRingRefutesLateProbeAnswer is the regression for the ring's old
// fixed-deadline detector, which failed a GSD after one unanswered probe:
// a live predecessor loses one ring beat, so its watcher suspects it, and
// its agent's probe answer arrives only after the meta probe timeout. The
// watched GSD must refute the suspicion itself: no takeover, the slot
// never marked dead, the view version unmoved.
func TestRingRefutesLateProbeAnswer(t *testing.T) {
	r := newRingFault(t)
	_, tk0 := detectorTotals(r.c)
	var before []uint64
	for _, v := range r.views(t) {
		before = append(before, v.Version)
	}

	r.dropBeats = 1
	r.ackDelay = r.c.Spec.Params.MetaProbeTimeout
	r.c.RunFor(5 * time.Second)
	r.c.Net.Filter = nil
	r.c.RunFor(2 * time.Second)

	if r.dropped != 1 || r.delayedAck == 0 {
		t.Fatalf("filter did not bite: %d beats dropped, %d probe answers delayed", r.dropped, r.delayedAck)
	}
	if _, tk1 := detectorTotals(r.c); tk1 != tk0 {
		t.Fatalf("%d GSD takeovers of a live predecessor", tk1-tk0)
	}
	for i, v := range r.views(t) {
		if !v.Alive(1) {
			t.Fatalf("partition %d's view marks the live slot 1 dead: %v", i, v)
		}
		if v.Version != before[i] {
			t.Fatalf("partition %d's view moved v%d -> v%d", i, before[i], v.Version)
		}
	}
}

// TestRingSlotQuarantine drives the ring's flap quarantine end to end:
// refuted suspicions of one live GSD, close enough that their decaying
// flap score reaches the threshold of 3 (three alone decay just short of
// it), quarantine its slot in every member's view with no takeover; the
// slot stays quarantined while the score decays and clears once it falls
// to half the threshold (one 20-beat half-life and a little more).
func TestRingSlotQuarantine(t *testing.T) {
	r := newRingFault(t)
	_, tk0 := detectorTotals(r.c)
	quarantined := func() (n int) {
		for _, v := range r.views(t) {
			if v.Quarantined(1) {
				n++
			}
		}
		return n
	}

	for i := 0; i < 4; i++ {
		if n := quarantined(); n != 0 {
			t.Fatalf("slot quarantined in %d views after %d suspicions", n, i)
		}
		r.dropBeats = 1
		r.c.RunFor(2 * time.Second)
	}
	if r.dropped != 4 {
		t.Fatalf("%d ring beats dropped, want 4", r.dropped)
	}
	if n := quarantined(); n != 3 {
		t.Fatalf("slot quarantined in %d of 3 views after 4 refuted suspicions", n)
	}
	r.c.RunFor(10 * time.Second)
	if n := quarantined(); n != 3 {
		t.Fatalf("quarantine cleared in %d of 3 views before the score decayed", 3-n)
	}
	r.c.RunFor(30 * time.Second)
	if n := quarantined(); n != 0 {
		t.Fatalf("slot still quarantined in %d views after its score decayed", n)
	}
	for i, v := range r.views(t) {
		if !v.Alive(1) {
			t.Fatalf("partition %d's view marks the flapping slot dead: %v", i, v)
		}
	}
	if _, tk1 := detectorTotals(r.c); tk1 != tk0 {
		t.Fatalf("%d GSD takeovers of a flapping but live GSD", tk1-tk0)
	}
}
