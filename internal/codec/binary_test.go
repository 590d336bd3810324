package codec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/detector"
	"repro/internal/federation"
	"repro/internal/gsd"
	"repro/internal/membership"
	"repro/internal/ppm"
	"repro/internal/shard"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/watchd"
	"repro/internal/wirebin"
)

// exemplars returns one filled value per registered payload type plus
// the hand-built ones that fill leaves out (nested rows, maps, pointers,
// interface contents).
func exemplars(t testing.TB) []any {
	t.Helper()
	var out []any
	for _, ex := range codec.Registered() {
		out = append(out, fill(ex))
	}
	if len(out) < 96 {
		t.Fatalf("only %d payload types registered; kernel protocols are missing", len(out))
	}
	return append(append(out, nestedExemplars()...), spawnRequests()...)
}

// nestedExemplars fills what fill leaves zero — slices of rows, shard-map
// entries, the missing-partition list, a view behind a pointer — for
// payloads whose plans compose nested parts.
func nestedExemplars() []any {
	at := time.Unix(1125532800, 5)
	res := types.ResourceStats{Node: 3, CPUPct: 41.5, Collected: at, RunQ: 2}
	app := types.AppState{Node: 3, Proc: 12, Name: "linpack", Alive: true, Updated: at}
	smap := shard.Map{Version: 4, Replicas: 2, VNodes: 16, Entries: []shard.Entry{{Part: 0, Node: 0}, {Part: 2, Node: 8}}}
	return []any{
		bulletin.QueryAck{
			Token: 11,
			Snapshots: []bulletin.Snapshot{
				{Partition: 0, Res: []types.ResourceStats{res}, Apps: []types.AppState{app}},
				{Partition: 2},
			},
			Missing:    []types.PartitionID{1, 3},
			Stale:      true,
			MapVersion: 4, HasMap: true, Map: smap,
		},
		bulletin.GetAck{Token: 12, Res: res, Found: true, MapVersion: 4, HasMap: true, Map: smap},
		membership.ViewMsg{View: membership.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 4})},
		checkpoint.Repl{Owner: "pws/part0", Seq: 3, Data: []byte("state")},
	}
}

// spawnRequests carries every spawn spec that travels behind
// simhost.SpawnReq's interface field.
func spawnRequests() []any {
	view := membership.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 4})
	specs := []any{
		ppm.JobSpec{ID: 9, Name: "linpack", Duration: time.Second, Submitter: types.Addr{Node: 2, Service: types.SvcPWS}, Gen: 3},
		gsd.SpawnSpec{Partition: 1, View: view, Migrated: true, Epoch: 5},
		gsd.ServiceSpawnSpec{Partition: 1, View: federation.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 4}), Restart: true},
		detector.Spec{Partition: 1, GSDNode: 4, SampleInterval: time.Second},
		watchd.Spec{Partition: 1, GSDNode: 4, Interval: time.Second, NICs: 2, Supervise: true, DetectorSample: time.Second},
	}
	var out []any
	for i, spec := range specs {
		out = append(out, simhost.SpawnReq{Service: "svc", Spec: spec, Token: uint64(i + 1)})
	}
	return out
}

// TestBinaryGobDifferential sends every payload exemplar through its
// plan and through encoding/gob, the reference, and requires both to
// deliver the same value — and the plan's encoding to be the smaller.
func TestBinaryGobDifferential(t *testing.T) {
	for _, ex := range codec.Registered() {
		gob.Register(ex) // gob carries interface contents by registered name
	}
	for _, payload := range exemplars(t) {
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

// TestUnknownInterfaceIDRejected does the same inside a payload: a spawn
// request whose spec names an unassigned wire ID is an error, not a nil
// spec or a panic.
func TestUnknownInterfaceIDRejected(t *testing.T) {
	req := simhost.SpawnReq{Service: "x", Token: 4}
	data, err := codec.AppendPayload(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	prefix := wirebin.AppendString(nil, req.Service)
	if data[len(prefix)] != 0 {
		t.Fatalf("nil spec encoded as %#x, want wire ID 0", data[len(prefix)])
	}
	for _, id := range []uint64{1, 0x7fff, 1 << 20} {
		patched := wirebin.AppendUvarint(append([]byte(nil), prefix...), id)
		patched = append(patched, data[len(prefix)+1:]...)
		var out simhost.SpawnReq
		if err := codec.DecodePayload(patched, &out); err == nil {
			t.Errorf("spec wire ID %d accepted as %#v", id, out)
		}
		body, err := codec.Encode(types.Message{Type: "spawn", Payload: req})
		if err != nil {
			t.Fatal(err)
		}
		body = append(body[:len(body)-len(data)], patched...)
		if _, err := codec.Decode(body); err == nil {
			t.Errorf("message with spec wire ID %d accepted", id)
		}
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
// duplicate IDs, a type registered twice and a field the plan cannot
// carry all panic with the offender named.
func TestRegisterPayloadPanics(t *testing.T) {
	type withChan struct {
		N    int
		Feed chan int
	}
	type withFunc struct {
		Rows []struct{ Done func() }
	}
	expectPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			rec := recover()
			if rec == nil {
				t.Errorf("%s: no panic", name)
			} else if msg, _ := rec.(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not name %q", name, rec, want)
			}
		}()
		fn()
	}
	expectPanic("reserved id", "Register(1)", func() { codec.Register(1, struct{ A int }{}) })
	expectPanic("duplicate id", "wire ID 16", func() { codec.Register(16, struct{ B int }{}) })
	expectPanic("duplicate type", "types.Event registered twice", func() { codec.Register(0x7ff0, types.Event{}) })
	expectPanic("chan field", "withChan.Feed", func() { codec.Register(0x7ff1, withChan{}) })
	expectPanic("func field", "withFunc.Rows[].Done", func() { codec.Register(0x7ff2, withFunc{}) })
}
