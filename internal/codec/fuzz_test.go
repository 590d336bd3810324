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

// retiredID100 is the last payload written for wire ID 100, a partition
// liveness summary retired with the gossip liveness plane. Both fuzz
// targets keep it as a seed: old bytes must fail or round-trip cleanly.
var retiredID100 = []byte("\x0e\x0e\t\x0e\x00\t\x00?\xf8\x00\x00\x00\x00\x00\x00")

// retiredPayload is a payload as a build that still registered its wire
// ID wrote it.
type retiredPayload struct {
	id      uint16
	payload []byte
}

// retiredBizrt holds the last payloads written for wire IDs 288-294, the
// business runtime's request, response, routing, latency and spawn-spec
// types, retired with it. Both fuzz targets keep them as seeds.
var retiredBizrt = []retiredPayload{
	{288, []byte("\t\x01x\x0e\x0e\x01x\x00\x00")},
	{289, []byte("\t\x01x\x01\x00\x00")},
	{290, []byte("\x01x\x0e\x00")},
	{291, []byte("\t\x01x")},
	{292, []byte("\t\x00")},
	{293, []byte("\x01x\x0e\x01")},
	{294, []byte("\x01x\x00\x0e\x0e\x0e\x0e")},
}

// retiredMetaHB is the last payload written for wire ID 208, the
// meta-group ring beat (partition, view version), retired when the ring
// began beating heartbeat.Heartbeat (ID 32). Both fuzz targets keep it as
// a seed.
var retiredMetaHB = retiredPayload{208, []byte("\x02\x0e")}

// retiredAgent holds the last payloads written for wire IDs 116-119, the
// OS agent's kill and exec requests and acks, retired when the unused
// agent.kill and agent.exec RPCs were deleted (PPM kills through the host
// and runs commands through Host.RunCommand). Both fuzz targets keep them
// as seeds.
var retiredAgent = []retiredPayload{
	{116, []byte("\x02es\x02")},
	{117, []byte("\x02\x02es\x01\x00\x02")},
	{118, []byte("\x06uptime\x01\x02-p\x03")},
	{119, []byte("\x02\x06uptime\x06up 42s\x00\x03")},
}

// retiredSpawnReq is a simhost spawn request (wire ID 114, still live)
// whose spec is a retired bizrt instance spawn spec, wire ID 294.
var retiredSpawnReq = []byte("\x03svc\xa6\x02\x04shop\x01\x03web\x04\x00\x80\xa8\xd6\xb9\a\x02\x04\x06\x06")

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
	// A partition liveness hand-off as a build that still registered wire
	// ID 100 sent it: the retired ID must be refused, not decoded as
	// another type.
	if old, err := codec.Encode(types.Message{From: types.Addr{Node: 1, Service: types.SvcGSD},
		To: types.Addr{Node: 1, Service: types.SvcGossip}, Type: "gsp.live"}); err == nil {
		binary.BigEndian.PutUint16(old, 100)
		f.Add(append(old, retiredID100...))
	}
	// Business-runtime messages as a build that still registered wire IDs
	// 288-294 sent them, bare and nested in a spawn request, an old ring
	// beat (ID 208) and old agent kill/exec messages (IDs 116-119): each
	// must be refused.
	retired := append(append(retiredBizrt, retiredAgent...), retiredPayload{114, retiredSpawnReq}, retiredMetaHB)
	for _, r := range retired {
		old, err := codec.Encode(types.Message{
			From: types.Addr{Node: 1, Service: types.SvcWD},
			To:   types.Addr{Node: 2, Service: types.SvcGSD},
			NIC:  1, Type: "seed",
		})
		if err != nil {
			f.Fatal(err)
		}
		binary.BigEndian.PutUint16(old, r.id)
		old = append(old, r.payload...)
		if _, err := codec.Decode(old); err == nil {
			f.Fatalf("retired payload (wire ID %d) decoded", r.id)
		}
		f.Add(old)
	}
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
	f.Add(retiredID100)
	for _, r := range append(append(retiredBizrt, retiredAgent...), retiredMetaHB) {
		f.Add(r.payload)
	}
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
	if err != nil || len(paths) < 27 {
		t.Fatalf("found %d seed-id inputs (%v), want 27", len(paths), err)
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
