package gsd

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/config"
	"repro/internal/types"
)

func testDaemon(t *testing.T) *Daemon {
	t.Helper()
	topo, err := config.Uniform(3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return New(Spec{Partition: 1, Topo: topo, Params: config.FastParams()})
}

func TestRecoveryCandidates(t *testing.T) {
	g := testDaemon(t)
	// Partition 1 of a uniform 3x4 topology: server 4, backup 5.
	got := g.recoveryCandidates(1, -1)
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("candidates = %v", got)
	}
	// Avoiding the failed server leaves the backup.
	got = g.recoveryCandidates(1, 4)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("candidates avoiding server = %v", got)
	}
	// Unknown partitions yield nothing.
	if got := g.recoveryCandidates(9, -1); got != nil {
		t.Fatalf("unknown partition candidates = %v", got)
	}
}

func TestCkptOwnerStablePerPartition(t *testing.T) {
	g := testDaemon(t)
	if g.ckptOwner() != "gsd/1" {
		t.Fatalf("owner = %q", g.ckptOwner())
	}
}

func TestPartStateRoundTrip(t *testing.T) {
	st := partState{Down: []types.NodeID{3, 7}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var got partState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Down) != 2 || got.Down[0] != 3 || got.Down[1] != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadyHandshakeServices(t *testing.T) {
	// Services that restore state announce their own recovery; the data
	// bulletin and checkpoint instances are recovered on process start.
	if !readyHandshake[types.SvcES] || !readyHandshake[types.SvcPWS] {
		t.Fatal("ES and PWS must use the ready handshake")
	}
	if readyHandshake[types.SvcDB] || readyHandshake[types.SvcCkpt] {
		t.Fatal("DB/CKPT have no restore handshake")
	}
}

func TestLocalSvcsIncludeExtras(t *testing.T) {
	topo, _ := config.Uniform(2, 4, 3)
	g := New(Spec{Partition: 0, Topo: topo, Params: config.FastParams(),
		Extra: []string{types.SvcPWS}})
	// The gossip instance is supervised alongside the fixed trio and the
	// extras.
	want := map[string]bool{types.SvcES: true, types.SvcDB: true,
		types.SvcCkpt: true, types.SvcPWS: true, types.SvcGossip: true}
	if len(g.localSvcs) != len(want) {
		t.Fatalf("localSvcs = %v", g.localSvcs)
	}
	for _, svc := range g.localSvcs {
		if !want[svc] {
			t.Fatalf("unexpected supervised service %s", svc)
		}
	}
}
