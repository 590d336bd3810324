package codec_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"

	// Registers IDs 96+; every other registering package arrives through
	// roundtrip_test.go's imports.
	_ "repro/internal/gossip"
)

// wireIDs maps every registered payload type's wire ID to its type, read
// back from the envelope each exemplar encodes to.
func wireIDs(t testing.TB) map[uint16]reflect.Type {
	t.Helper()
	out := map[uint16]reflect.Type{}
	for _, ex := range codec.Registered() {
		body, err := codec.Encode(types.Message{Payload: ex})
		if err != nil {
			t.Fatalf("%T: %v", ex, err)
		}
		out[binary.BigEndian.Uint16(body)] = reflect.TypeOf(ex)
	}
	return out
}

// FuzzDecodeMessage asserts the codec-level half of the live-node
// invariant: no body, however malformed, may panic DecodeMessage. Valid
// bodies must also re-encode.
func FuzzDecodeMessage(f *testing.F) {
	for _, ex := range exemplars(f) {
		msg := types.Message{
			From: types.Addr{Node: 1, Service: types.SvcWD},
			To:   types.Addr{Node: 2, Service: types.SvcGSD},
			NIC:  1, Type: "seed", Payload: ex,
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

// FuzzPayloadDecode throws arbitrary bytes at every registered payload
// type's plan: errors are fine, panics are not, and whatever decodes
// must re-encode to bytes that decode and re-encode to the same bytes.
// (Bytes, not DeepEqual: a decoded NaN is stable on the wire but never
// equal to itself.)
func FuzzPayloadDecode(f *testing.F) {
	ids := wireIDs(f)
	for _, ex := range codec.Registered() {
		data, err := codec.AppendPayload(nil, fill(ex))
		if err != nil {
			f.Fatalf("%T: %v", ex, err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range ids {
			p := reflect.New(typ)
			if err := codec.DecodePayload(data, p.Interface()); err != nil { // must not panic
				continue
			}
			enc, err := codec.AppendPayload(nil, p.Elem().Interface())
			if err != nil {
				t.Fatalf("%v: decoded value failed to encode: %v", typ, err)
			}
			q := reflect.New(typ)
			if err := codec.DecodePayload(enc, q.Interface()); err != nil {
				t.Fatalf("%v: re-encoded bytes failed to decode: %v", typ, err)
			}
			if again, _ := codec.AppendPayload(nil, q.Elem().Interface()); !bytes.Equal(enc, again) {
				t.Fatalf("%v: re-encode not stable:\n%x\n%x", typ, enc, again)
			}
		}
	})
}

// TestPayloadSeedsKeepTheirBytes fences the wire format: each committed
// FuzzPayloadDecode/seed-id<N> input, written by the hand-rolled codecs
// the plans replaced, decodes as wire ID N and re-encodes to exactly the
// same bytes.
func TestPayloadSeedsKeepTheirBytes(t *testing.T) {
	ids := wireIDs(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPayloadDecode", "seed-id*"))
	if err != nil || len(paths) < 28 {
		t.Fatalf("found %d seed-id inputs (%v), want 28", len(paths), err)
	}
	for _, path := range paths {
		id, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(path), "seed-id"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		typ, ok := ids[uint16(id)]
		if !ok {
			t.Fatalf("%s: wire ID %d is not registered", path, id)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a header line and one Go-quoted []byte.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data := []byte(s)
		p := reflect.New(typ)
		if err := codec.DecodePayload(data, p.Interface()); err != nil {
			t.Errorf("%s: decode as %v: %v", path, typ, err)
			continue
		}
		if enc, err := codec.AppendPayload(nil, p.Elem().Interface()); err != nil || !bytes.Equal(enc, data) {
			t.Errorf("%s: %v re-encodes to %x (%v), want %x", path, typ, enc, err, data)
		}
	}
}
