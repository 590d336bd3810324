package gossip

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/federation"
	"repro/internal/types"
)

// sampleMsgs covers every gossip payload with both populated and empty
// shapes — the empty ones pin the nil-not-empty decode contract the
// codec round-trip gate enforces.
func sampleMsgs() []any {
	return []any{
		&DigestMsg{Digest: Digest{
			Part:       3,
			FedVersion: 12,
			Deltas:     []SourceSeq{{Src: 0, Seq: 41}, {Src: 7, Seq: 3}},
			Live:       []LiveVer{{Part: 1, Ver: 99}},
		}, Reply: true},
		&DigestMsg{Digest: Digest{Part: 1}},
		&UpdatesMsg{Updates: Updates{
			From: 2,
			View: &federation.View{Version: 5, Entries: map[types.PartitionID]federation.Entry{
				0: {Node: 0, Alive: true},
				1: {Node: 17, Alive: false},
			}},
			Deltas: []Delta{{Src: 4, Seq: 9, Data: []byte("batch")}},
			Live:   []Liveness{{Part: 4, Node: 64, Ver: 8, Total: 16, Down: []types.NodeID{65, 70}}},
		}},
		&UpdatesMsg{Updates: Updates{From: 9}},
		&SubmitMsg{Seq: 77, Data: []byte{1, 2, 3}},
		&DeliverMsg{Src: 5, Seq: 78, Data: []byte("d")},
		&LiveMsg{Liveness: Liveness{Part: 2, Node: 32, Ver: 4, Total: 17}},
	}
}

// encode is the payload encoding of msg, a pointer to a gossip payload.
func encode(t testing.TB, msg any) []byte {
	data, err := codec.AppendPayload(nil, reflect.ValueOf(msg).Elem().Interface())
	if err != nil {
		t.Fatalf("%T: encode: %v", msg, err)
	}
	return data
}

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range sampleMsgs() {
		data := encode(t, msg)
		out := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		if err := codec.DecodePayload(data, out); err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, out) {
			t.Fatalf("%T round trip:\n in  %+v\n out %+v", msg, msg, out)
		}
	}
}

func TestWireRejectsTrailingBytes(t *testing.T) {
	data := encode(t, &SubmitMsg{Seq: 1, Data: []byte("x")})
	data = append(data, 0xEE)
	if err := codec.DecodePayload(data, new(SubmitMsg)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// fuzzTarget maps a selector byte to a fresh payload of that type.
func fuzzTarget(sel byte) any {
	switch sel % 5 {
	case 0:
		return new(DigestMsg)
	case 1:
		return new(UpdatesMsg)
	case 2:
		return new(SubmitMsg)
	case 3:
		return new(DeliverMsg)
	default:
		return new(LiveMsg)
	}
}

// FuzzGossipWire throws arbitrary bytes at the gossip decoders (selected
// by the first byte): errors are fine, panics are not, and accepted
// input must re-encode to a value that decodes back identically.
func FuzzGossipWire(f *testing.F) {
	for i, msg := range sampleMsgs() {
		sel := byte(0)
		switch msg.(type) {
		case *UpdatesMsg:
			sel = 1
		case *SubmitMsg:
			sel = 2
		case *DeliverMsg:
			sel = 3
		case *LiveMsg:
			sel = 4
		}
		f.Add(append([]byte{sel}, encode(f, msg)...))
		_ = i
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := fuzzTarget(data[0])
		if err := codec.DecodePayload(data[1:], p); err != nil { // must not panic
			return
		}
		enc := encode(t, p)
		q := fuzzTarget(data[0])
		if err := codec.DecodePayload(enc, q); err != nil {
			t.Fatalf("re-encoded bytes failed to decode: %v", err)
		}
		// Compared as bytes, not DeepEqual: a decoded NaN utilisation is
		// stable on the wire but never equal to itself.
		if !bytes.Equal(enc, encode(t, q)) {
			t.Fatalf("re-encode not stable:\n p %+v\n q %+v", p, q)
		}
	})
}
