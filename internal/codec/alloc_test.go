//go:build !race

package codec_test

import (
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/types"
)

// The allocation pins below are the regression fence for the tentpole
// claim: the steady-state encode path (AppendMessage into a buffer with
// capacity) and the steady-state decode path (DecodeWire into a reused
// value) perform zero allocations for hot payloads. They are excluded
// from race builds — the race runtime adds bookkeeping allocations that
// are not the code's.

func heartbeatMsg() types.Message {
	return types.Message{
		From: types.Addr{Node: 3, Service: types.SvcWD},
		To:   types.Addr{Node: 0, Service: types.SvcGSD},
		NIC:  1, Type: heartbeat.MsgHeartbeat,
		Sent: time.Unix(1125532800, 0),
		Payload: heartbeat.Heartbeat{
			Node: 3, Seq: 99, Interval: 250 * time.Millisecond,
			Boot: time.Unix(1125532000, 0),
		},
	}
}

func TestAppendMessageZeroAllocs(t *testing.T) {
	msg := heartbeatMsg()
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		out, err := codec.AppendMessage(buf[:0], msg)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendMessage allocates %v/op on the hot path, want 0", allocs)
	}
}

func TestDecodeWireZeroAllocs(t *testing.T) {
	cases := map[string]struct {
		data []byte
		into codec.Payload
	}{
		"heartbeat": {
			data: heartbeat.Heartbeat{Node: 3, Seq: 99, Interval: time.Second, Boot: time.Unix(1, 0)}.AppendWire(nil),
			into: new(heartbeat.Heartbeat),
		},
		"resource stats": {
			data: types.ResourceStats{Node: 7, CPUPct: 50, Collected: time.Unix(2, 3)}.AppendWire(nil),
			into: new(types.ResourceStats),
		},
		"event": {
			data: types.Event{Type: types.EvNodeFail, Node: 7, Service: types.SvcWD, Detail: ""}.AppendWire(nil),
			into: new(types.Event),
		},
		"bulletin read reply": {
			data: bulletin.GetAck{
				Token: 5, Found: true, Primary: true, MapVersion: 3,
				Res: types.ResourceStats{Node: 7, CPUPct: 50, Collected: time.Unix(2, 3)},
			}.AppendWire(nil),
			into: new(bulletin.GetAck),
		},
	}
	for name, tc := range cases {
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.into.DecodeWire(tc.data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodeWire allocates %v/op into a reused value, want 0", name, allocs)
		}
	}
}

func TestSizeZeroAllocsForBinary(t *testing.T) {
	// Size of a binary payload without a Sizer goes through the pooled
	// scratch buffer — steady-state it must not allocate either.
	msg := types.Message{Type: "x", Payload: types.AppState{Node: 1, Name: "a"}}
	codec.Size(msg) // warm the scratch pool
	allocs := testing.AllocsPerRun(200, func() { codec.Size(msg) })
	if allocs != 0 {
		t.Fatalf("Size allocates %v/op for binary payloads, want 0", allocs)
	}
}

func TestSizeGobZeroAllocs(t *testing.T) {
	// A gob-family payload is weighed by walking its fields, never by
	// encoding it: a 1 MiB checkpoint replica costs no allocation.
	msg := types.Message{Type: checkpoint.MsgRepl, Payload: checkpoint.Repl{Owner: "pws/part0", Seq: 1, Data: make([]byte, 1<<20)}}
	if got := codec.Size(msg); got < 1<<20 {
		t.Fatalf("Size of a 1 MiB replica = %d, want at least 1 MiB", got)
	}
	allocs := testing.AllocsPerRun(200, func() { codec.Size(msg) })
	if allocs != 0 {
		t.Fatalf("Size allocates %v/op for gob payloads, want 0", allocs)
	}
}
