package codec

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := types.Message{
		From: types.Addr{Node: 3, Service: types.SvcWD},
		To:   types.Addr{Node: 0, Service: types.SvcGSD},
		NIC:  1,
		Type: "hb",
		Payload: types.Event{
			Type: types.EvNodeFail, Node: 3, Detail: "powered off",
			When: time.Date(2005, 9, 1, 0, 0, 30, 0, time.UTC),
		},
	}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != msg.From || got.To != msg.To || got.NIC != msg.NIC || got.Type != msg.Type {
		t.Fatalf("envelope mismatch: %+v vs %+v", got, msg)
	}
	ev, ok := got.Payload.(types.Event)
	if !ok {
		t.Fatalf("payload type = %T", got.Payload)
	}
	if ev.Type != types.EvNodeFail || ev.Node != 3 || ev.Detail != "powered off" {
		t.Fatalf("payload mismatch: %+v", ev)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a gob stream")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

type fixedSize struct{ n int }

func (f fixedSize) WireSize() int { return f.n }

func TestSizeSizerFastPath(t *testing.T) {
	msg := types.Message{Type: "hb", Payload: fixedSize{n: 40}}
	if got := Size(msg); got != EnvelopeOverhead+40 {
		t.Fatalf("Size with Sizer = %d, want %d", got, EnvelopeOverhead+40)
	}
}

func TestSizeNilPayload(t *testing.T) {
	msg := types.Message{Type: "probe"}
	if got := Size(msg); got != EnvelopeOverhead {
		t.Fatalf("Size nil payload = %d, want %d", got, EnvelopeOverhead)
	}
}

func TestSizeGobFallback(t *testing.T) {
	// map[string]string is one of codec's own gob registrations: two
	// entries of 1-byte strings weigh 2 × (2 + 2) bytes.
	msg := types.Message{Type: "x", Payload: map[string]string{"a": "b", "c": "d"}}
	if got := Size(msg); got != EnvelopeOverhead+8 {
		t.Fatalf("gob fallback size = %d, want %d", got, EnvelopeOverhead+8)
	}
}

func TestSizeUnencodablePayloadFallsBack(t *testing.T) {
	type unregistered struct{ N int }
	for _, p := range []any{unregistered{N: 1}, func() {}} {
		before := SizeErrors()
		if got := Size(types.Message{Type: "x", Payload: p}); got != EnvelopeOverhead {
			t.Fatalf("%T payload size = %d, want envelope only", p, got)
		}
		if got := SizeErrors(); got != before+1 {
			t.Fatalf("%T payload: SizeErrors went %d -> %d, want +1", p, before, got)
		}
	}
}

// TestSizeSkipsUnexportedFields registers, for this test only, a struct
// whose fields are all unexported: gob sends none of them, so it weighs
// the envelope alone.
func TestSizeSkipsUnexportedFields(t *testing.T) {
	type opaque struct {
		n int
		s string
		b []byte
	}
	saved := reg.Load()
	defer reg.Store(saved)
	next := saved.clone()
	next.gobTypes[reflect.TypeOf(opaque{})] = struct{}{}
	reg.Store(next)
	before := SizeErrors()
	if got := Size(types.Message{Type: "x", Payload: opaque{1, "xyz", make([]byte, 64)}}); got != EnvelopeOverhead {
		t.Fatalf("unexported-only struct size = %d, want envelope only", got)
	}
	if SizeErrors() != before {
		t.Fatal("registered payload counted as a size error")
	}
}

// Property: round-tripping an event-carrying message preserves the envelope
// for arbitrary node IDs and type tags.
func TestPropertyRoundTripEnvelope(t *testing.T) {
	f := func(fromNode, toNode uint8, typ string) bool {
		msg := types.Message{
			From: types.Addr{Node: types.NodeID(fromNode), Service: types.SvcES},
			To:   types.Addr{Node: types.NodeID(toNode), Service: types.SvcDB},
			NIC:  0,
			Type: typ,
		}
		data, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.From == msg.From && got.To == msg.To && got.Type == msg.Type
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
