package codec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/types"
)

// binaryPayload is the exported half of the codec.Payload method set a
// value exemplar exposes — how these tests recognise the binary family
// among codec.Registered().
type binaryPayload interface {
	WireID() uint16
	AppendWire(buf []byte) []byte
}

// binaryExemplars returns one filled value per binary-registered payload
// type.
func binaryExemplars(t testing.TB) []any {
	t.Helper()
	var out []any
	for _, ex := range codec.Registered() {
		if _, ok := ex.(binaryPayload); ok {
			out = append(out, fill(ex))
		}
	}
	if len(out) < 10 {
		t.Fatalf("only %d binary payload types registered; hot kernel payloads are missing", len(out))
	}
	return out
}

// TestBinaryGobDifferential encodes every binary payload through the
// binary codec and through encoding/gob (the reference, and what the
// fallback family puts on the wire) and requires both to deliver the same
// value — the equivalence that lets gob stay the fallback without a
// format fork.
func TestBinaryGobDifferential(t *testing.T) {
	for _, payload := range binaryExemplars(t) {
		msg := types.Message{
			From: types.Addr{Node: 1, Service: types.SvcWD},
			To:   types.Addr{Node: 2, Service: types.SvcGSD},
			NIC:  1, Type: "diff",
			Sent: time.Date(2005, 9, 1, 12, 0, 0, 0, time.UTC),
		}
		envelope, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("%T: envelope encode: %v", payload, err)
		}
		msg.Payload = payload
		bin, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("%T: binary encode: %v", payload, err)
		}
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&payload); err != nil {
			t.Fatalf("%T: gob encode: %v", payload, err)
		}
		gobLen := gb.Len()

		fromBin, err := codec.Decode(bin)
		if err != nil {
			t.Fatalf("%T: binary decode: %v", payload, err)
		}
		var fromGob any
		if err := gob.NewDecoder(&gb).Decode(&fromGob); err != nil {
			t.Fatalf("%T: gob decode: %v", payload, err)
		}
		if !reflect.DeepEqual(fromBin.Payload, fromGob) {
			t.Errorf("%T: codecs disagree:\nbinary %#v\ngob    %#v", payload, fromBin.Payload, fromGob)
		}
		if !payloadEqual(fromBin.Payload, payload) {
			t.Errorf("%T: binary round trip changed the value:\nsent %#v\ngot  %#v", payload, payload, fromBin.Payload)
		}
		if !fromBin.Sent.Equal(msg.Sent) {
			t.Errorf("%T: Sent time mangled: %v", payload, fromBin.Sent)
		}
		if binLen := len(bin) - len(envelope); binLen >= gobLen {
			t.Errorf("%T: binary payload (%d bytes) is no smaller than gob (%d bytes)", payload, binLen, gobLen)
		}
	}
}

// TestUnknownWireIDRejected patches a valid body's payload ID to an
// unassigned value: the decoder must reject it, not misparse the payload
// as another type.
func TestUnknownWireIDRejected(t *testing.T) {
	msg := types.Message{
		From: types.Addr{Node: 1, Service: "a"}, To: types.Addr{Node: 2, Service: "b"},
		Type: "x", Payload: types.ResourceStats{Node: 1},
	}
	data, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(data, 0x7fff)
	if _, err := codec.Decode(data); err == nil {
		t.Fatal("unknown wire ID accepted")
	}
}

// TestNilPayloadStrict pins the nil-payload envelope: it round-trips, and
// trailing bytes after it are rejected rather than ignored.
func TestNilPayloadStrict(t *testing.T) {
	msg := types.Message{
		From: types.Addr{Node: 1, Service: "a"}, To: types.Addr{Node: 2, Service: "b"},
		Type: "probe",
	}
	data, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Payload != nil || out.Type != "probe" {
		t.Fatalf("nil payload mangled: %+v", out)
	}
	if _, err := codec.Decode(append(data, 0xaa)); err == nil {
		t.Fatal("trailing bytes after nil-payload envelope accepted")
	}
}

// TestRegisterPayloadPanics pins the init-time guard rails: reserved IDs,
// ID mismatches, non-pointer factories and duplicate registrations all
// panic with the offender named.
func TestRegisterPayloadPanics(t *testing.T) {
	codec.Registered() // force builtin registration so ID 16 is taken
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("reserved id", func() {
		codec.RegisterPayload(1, func() codec.Payload { return new(types.Event) })
	})
	expectPanic("id mismatch", func() {
		codec.RegisterPayload(200, func() codec.Payload { return new(types.Event) })
	})
	expectPanic("duplicate id", func() {
		codec.RegisterPayload(16, func() codec.Payload { return new(types.Event) })
	})
}
