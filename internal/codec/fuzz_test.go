package codec_test

import (
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"

	// Registers IDs 96+; every other registering package arrives through
	// roundtrip_test.go's cluster import.
	_ "repro/internal/gossip"
)

// hotDecoders returns one fresh decoder per binary payload type: every
// exemplar in codec.Registered() whose pointer implements codec.Payload.
// Derived, so a payload is fuzzed from the moment it registers.
func hotDecoders() []codec.Payload {
	var out []codec.Payload
	for _, ex := range codec.Registered() {
		if p, ok := reflect.New(reflect.TypeOf(ex)).Interface().(codec.Payload); ok {
			out = append(out, p)
		}
	}
	return out
}

// FuzzDecodeMessage asserts the codec-level half of the live-node
// invariant: no body, however malformed, may panic DecodeMessage. Valid
// bodies must also re-encode.
func FuzzDecodeMessage(f *testing.F) {
	for _, ex := range codec.Registered() {
		msg := types.Message{
			From: types.Addr{Node: 1, Service: types.SvcWD},
			To:   types.Addr{Node: 2, Service: types.SvcGSD},
			NIC:  1, Type: "seed", Payload: fill(ex),
		}
		if data, err := codec.Encode(msg); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Decode(data) // must not panic
		if err != nil {
			return
		}
		if _, err := codec.Encode(msg); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
	})
}

// FuzzPayloadDecode throws arbitrary bytes at every hot payload's
// DecodeWire: errors are fine, panics are not, and whatever state the
// decoder leaves behind must still encode.
func FuzzPayloadDecode(f *testing.F) {
	if n, want := len(hotDecoders()), len(binaryExemplars(f)); n != want {
		f.Fatalf("%d hot decoders derived, but %d binary payload types are registered", n, want)
	}
	for _, p := range hotDecoders() {
		f.Add(p.AppendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range hotDecoders() {
			if err := p.DecodeWire(data); err != nil { // must not panic
				continue
			}
			p.AppendWire(nil) // decoded state must be encodable
		}
	})
}
