package watchd_test

import (
	"testing"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/types"
)

// A WD follows the highest fencing epoch it has seen and fences a stale
// primary that announces a lower one, instead of letting the heartbeat
// stream follow it back into a split brain.
func TestWDFencesStaleAnnounce(t *testing.T) {
	eng, net, _, wd, got := rig(t)
	eng.RunFor(1200 * time.Millisecond)

	// The legitimate replacement announces at epoch 5 from node 2.
	_ = net.Send(types.Message{
		From: types.Addr{Node: 2, Service: types.SvcGSD},
		To:   types.Addr{Node: 1, Service: types.SvcWD},
		NIC:  0, Type: heartbeat.MsgGSDAnnounce,
		Payload: heartbeat.GSDAnnounce{Partition: 0, GSDNode: 2, Epoch: 5},
	})
	eng.RunFor(200 * time.Millisecond)
	if wd.GSDNode() != 2 || wd.Epoch() != 5 {
		t.Fatalf("after epoch-5 announce: target=%v epoch=%d, want 2/5", wd.GSDNode(), wd.Epoch())
	}

	// The falsely-suspected old primary wakes up and announces at its
	// stale epoch 3 from node 0.
	*got = nil
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: types.SvcGSD},
		To:   types.Addr{Node: 1, Service: types.SvcWD},
		NIC:  1, Type: heartbeat.MsgGSDAnnounce,
		Payload: heartbeat.GSDAnnounce{Partition: 0, GSDNode: 0, Epoch: 3},
	})
	eng.RunFor(200 * time.Millisecond)
	if wd.GSDNode() != 2 || wd.Epoch() != 5 {
		t.Fatalf("stale announce adopted: target=%v epoch=%d, want 2/5", wd.GSDNode(), wd.Epoch())
	}
	fenced := false
	for _, m := range *got {
		if m.Type != heartbeat.MsgFenced || m.To.Node != 0 {
			continue
		}
		f, ok := m.Payload.(heartbeat.Fenced)
		if !ok || f.Partition != 0 || f.Epoch != 5 {
			t.Fatalf("fence contents: %+v", m.Payload)
		}
		fenced = true
	}
	if !fenced {
		t.Fatalf("stale primary was not fenced; messages: %+v", *got)
	}
}

// A suspected-but-alive WD refutes by outbidding the suspicion's
// incarnation and beating immediately on every interface.
func TestWDRefutesSuspicionWithIncarnationBump(t *testing.T) {
	eng, net, _, wd, got := rig(t)
	eng.RunFor(1200 * time.Millisecond)
	incBefore := wd.Incarnation()

	*got = nil
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: types.SvcGSD},
		To:   types.Addr{Node: 1, Service: types.SvcWD},
		NIC:  0, Type: heartbeat.MsgSuspect,
		Payload: heartbeat.SuspectNotice{Node: 1, Inc: incBefore},
	})
	eng.RunFor(100 * time.Millisecond) // well inside the beat interval
	if wd.Incarnation() <= incBefore {
		t.Fatalf("incarnation = %d, want > %d", wd.Incarnation(), incBefore)
	}
	refuted := 0
	for _, m := range *got {
		if m.Type != heartbeat.MsgHeartbeat {
			continue
		}
		hb := m.Payload.(heartbeat.Heartbeat)
		if hb.Inc > incBefore {
			refuted++
		}
	}
	if refuted != 3 { // one immediate refutation beat per NIC
		t.Fatalf("refutation beats with bumped incarnation = %d, want 3", refuted)
	}

	// A notice for some other node must be ignored.
	inc := wd.Incarnation()
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: types.SvcGSD},
		To:   types.Addr{Node: 1, Service: types.SvcWD},
		NIC:  0, Type: heartbeat.MsgSuspect,
		Payload: heartbeat.SuspectNotice{Node: 2, Inc: 0},
	})
	eng.RunFor(100 * time.Millisecond)
	if wd.Incarnation() != inc {
		t.Fatalf("foreign suspect notice bumped incarnation: %d -> %d", inc, wd.Incarnation())
	}
}

// A WD booted on a crash-restarted node beats the GSD its topology names.
// When a GSD elsewhere suspects it before any announce arrived, the
// partition migrated while the node was down: the WD asks that GSD to
// re-admit it. A WD that has heard an announce, or was not restarted,
// only refutes.
func TestRejoiningWDAsksSuspectingGSD(t *testing.T) {
	eng, net, _, wd, got := rig(t)
	eng.RunFor(1200 * time.Millisecond)
	suspect := func(from types.NodeID) []types.Message {
		*got = nil
		_ = net.Send(types.Message{
			From: types.Addr{Node: from, Service: types.SvcGSD},
			To:   types.Addr{Node: 1, Service: types.SvcWD},
			NIC:  0, Type: heartbeat.MsgSuspect,
			Payload: heartbeat.SuspectNotice{Node: 1, Inc: wd.Incarnation()},
		})
		eng.RunFor(100 * time.Millisecond)
		var rejoins []types.Message
		for _, m := range *got {
			if m.Type == heartbeat.MsgRejoin {
				rejoins = append(rejoins, m)
			}
		}
		return rejoins
	}

	if r := suspect(2); len(r) != 0 {
		t.Fatalf("WD not marked rejoining sent %d rejoin requests", len(r))
	}
	wd.MarkRejoin()
	if r := suspect(0); len(r) != 0 {
		t.Fatalf("suspicion from the WD's own GSD drew %d rejoin requests", len(r))
	}
	r := suspect(2)
	if len(r) != 1 || r[0].To.Node != 2 {
		t.Fatalf("rejoin requests after a suspicion from node 2: %+v, want one to node 2", r)
	}
	if hb := r[0].Payload.(heartbeat.Heartbeat); hb.Node != 1 || hb.Inc != wd.Incarnation() {
		t.Fatalf("rejoin request beat %+v, want node 1 at incarnation %d", hb, wd.Incarnation())
	}

	// Once a GSD has announced itself, suspicions are only refuted.
	_ = net.Send(types.Message{
		From: types.Addr{Node: 2, Service: types.SvcGSD},
		To:   types.Addr{Node: 1, Service: types.SvcWD},
		NIC:  0, Type: heartbeat.MsgGSDAnnounce,
		Payload: heartbeat.GSDAnnounce{Partition: 0, GSDNode: 2, Epoch: 1},
	})
	eng.RunFor(100 * time.Millisecond)
	if r := suspect(0); len(r) != 0 {
		t.Fatalf("re-admitted WD sent %d rejoin requests", len(r))
	}
}
