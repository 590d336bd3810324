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

func TestSizeNilPayload(t *testing.T) {
	msg := types.Message{Type: "probe"}
	if got := Size(msg); got != EnvelopeOverhead {
		t.Fatalf("Size nil payload = %d, want %d", got, EnvelopeOverhead)
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
// whose fields are all unexported: its plan carries none of them, so it
// weighs the envelope alone and encodes to nothing.
func TestSizeSkipsUnexportedFields(t *testing.T) {
	type opaque struct {
		n int
		s string
		b []byte
	}
	saved := reg.Load()
	defer reg.Store(saved)
	Register(0x7ffe, opaque{})
	regMu.Lock()
	registered = registered[:len(registered)-1]
	regMu.Unlock()
	before := SizeErrors()
	p := opaque{1, "xyz", make([]byte, 64)}
	if got := Size(types.Message{Type: "x", Payload: p}); got != EnvelopeOverhead {
		t.Fatalf("unexported-only struct size = %d, want envelope only", got)
	}
	if SizeErrors() != before {
		t.Fatal("registered payload counted as a size error")
	}
	if data, err := AppendPayload(nil, p); err != nil || len(data) != 0 {
		t.Fatalf("unexported-only struct encodes to %x, %v", data, err)
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

// TestPointerShapedPayloads registers, for this test only, two payloads
// an interface holds in its data word itself — a struct of one map field
// and one of one pointer field — and sends each as the top-level payload
// and inside another payload's interface field.
func TestPointerShapedPayloads(t *testing.T) {
	type oneMap struct{ M map[string]int }
	type onePtr struct{ P *types.Event }
	type holder struct {
		In any
		N  int
	}
	saved := reg.Load()
	defer reg.Store(saved)
	Register(0x7ff3, oneMap{})
	Register(0x7ff4, onePtr{})
	Register(0x7ff5, holder{})
	regMu.Lock()
	registered = registered[:len(registered)-3]
	regMu.Unlock()
	if !lookup(oneMap{}).direct || !lookup(onePtr{}).direct || lookup(holder{}).direct {
		t.Fatal("pointer shapes misjudged")
	}
	for _, v := range []any{
		oneMap{M: map[string]int{"a": 1, "b": -2}}, oneMap{},
		onePtr{P: &types.Event{Type: types.EvNodeFail, Node: 3, Detail: "x"}}, onePtr{},
	} {
		for _, payload := range []any{v, holder{In: v, N: 7}} {
			data, err := AppendPayload(nil, payload)
			if err != nil {
				t.Fatalf("%#v: %v", payload, err)
			}
			if got, want := Size(types.Message{Payload: payload}), EnvelopeOverhead+len(data); got != want {
				t.Errorf("%#v: size %d, want %d", payload, got, want)
			}
			body, err := Encode(types.Message{Type: "x", Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Decode(body)
			if err != nil {
				t.Fatalf("%#v: %v", payload, err)
			}
			if !reflect.DeepEqual(out.Payload, payload) {
				t.Errorf("round trip changed the value:\nsent %#v\ngot  %#v", payload, out.Payload)
			}
		}
	}
}
