//go:build !race

package codec_test

import (
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/pws"
	"repro/internal/types"
)

// The allocation pins below are the regression fence for the payload
// plans: the steady-state encode path (AppendMessage into a buffer with
// capacity), the steady-state decode path (DecodePayload into a reused
// value) and Size perform zero allocations. They are excluded from race
// builds — the race runtime adds bookkeeping allocations that are not
// the code's.

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
	submit := types.Message{
		From: types.Addr{Node: 3, Service: "cli"},
		To:   types.Addr{Node: 0, Service: types.SvcPWS},
		Type: pws.MsgSubmit,
		Payload: pws.SubmitReq{Token: 7, Job: pws.Job{
			Pool: "batch", Name: "linpack", Duration: time.Second, Width: 4, Walltime: time.Minute,
		}},
	}
	buf := make([]byte, 0, 512)
	for _, msg := range []types.Message{heartbeatMsg(), submit} {
		allocs := testing.AllocsPerRun(200, func() {
			out, err := codec.AppendMessage(buf[:0], msg)
			if err != nil || len(out) == 0 {
				t.Fatal("encode failed")
			}
		})
		if allocs != 0 {
			t.Errorf("AppendMessage of a %T allocates %v/op on the hot path, want 0", msg.Payload, allocs)
		}
	}
}

func TestDecodeWireZeroAllocs(t *testing.T) {
	cases := map[string]struct {
		payload any
		into    any
	}{
		"heartbeat": {
			payload: heartbeat.Heartbeat{Node: 3, Seq: 99, Interval: time.Second, Boot: time.Unix(1, 0)},
			into:    new(heartbeat.Heartbeat),
		},
		"resource stats": {
			payload: types.ResourceStats{Node: 7, CPUPct: 50, Collected: time.Unix(2, 3)},
			into:    new(types.ResourceStats),
		},
		"event": {
			payload: types.Event{Type: types.EvNodeFail, Node: 7, Service: types.SvcWD, Detail: ""},
			into:    new(types.Event),
		},
		"bulletin read reply": {
			payload: bulletin.GetAck{
				Token: 5, Found: true, Primary: true, MapVersion: 3,
				Res: types.ResourceStats{Node: 7, CPUPct: 50, Collected: time.Unix(2, 3)},
			},
			into: new(bulletin.GetAck),
		},
	}
	for name, tc := range cases {
		data, err := codec.AppendPayload(nil, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := codec.DecodePayload(data, tc.into); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodePayload allocates %v/op into a reused value, want 0", name, allocs)
		}
	}
}

func TestSizeZeroAllocsForBinary(t *testing.T) {
	// Size measures a payload through its plan, never by encoding it —
	// steady-state it must not allocate.
	msg := types.Message{Type: "x", Payload: types.AppState{Node: 1, Name: "a"}}
	allocs := testing.AllocsPerRun(200, func() { codec.Size(msg) })
	if allocs != 0 {
		t.Fatalf("Size allocates %v/op for binary payloads, want 0", allocs)
	}
}

func TestSizeGobZeroAllocs(t *testing.T) {
	// A checkpoint replica, once a gob payload, is weighed by walking its
	// plan, never by encoding it: a 1 MiB replica costs no allocation.
	msg := types.Message{Type: checkpoint.MsgRepl, Payload: checkpoint.Repl{Owner: "pws/part0", Seq: 1, Data: make([]byte, 1<<20)}}
	if got := codec.Size(msg); got < 1<<20 {
		t.Fatalf("Size of a 1 MiB replica = %d, want at least 1 MiB", got)
	}
	allocs := testing.AllocsPerRun(200, func() { codec.Size(msg) })
	if allocs != 0 {
		t.Fatalf("Size allocates %v/op for a checkpoint replica, want 0", allocs)
	}
}
