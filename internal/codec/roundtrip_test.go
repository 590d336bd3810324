package codec_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/gsd"
	"repro/internal/membership"
	"repro/internal/simhost"
	"repro/internal/types"

	// Pull in every package that registers wire payloads, so Registered()
	// covers the full kernel protocol surface (cluster transitively
	// imports core, simhost, gsd, watchd, detector, ppm, pws, bulletin,
	// events, checkpoint, heartbeat, membership, rpc, ...).
	_ "repro/internal/cluster"
)

// fill returns a copy of exemplar with every settable exported field of a
// basic kind set to a deterministic nonzero value, recursing into structs.
// Interfaces, maps, slices and pointers stay zero: their nil forms must
// round-trip too, and typed interface contents are exercised by the
// protocol tests themselves.
func fill(exemplar any) any {
	v := reflect.New(reflect.TypeOf(exemplar)).Elem()
	v.Set(reflect.ValueOf(exemplar))
	fillValue(v)
	return v.Interface()
}

func fillValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(9)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.CanSet() {
				fillValue(f)
			}
		}
	}
}

// payloadEqual is DeepEqual modulo one documented gob property: an empty
// non-nil slice or map decodes as nil.
func payloadEqual(got, sent any) bool {
	if reflect.DeepEqual(got, sent) {
		return true
	}
	gv, sv := reflect.ValueOf(got), reflect.ValueOf(sent)
	switch sv.Kind() {
	case reflect.Slice, reflect.Map:
		return sv.Len() == 0 && (!gv.IsValid() || gv.IsNil())
	}
	return false
}

// TestRegisteredPayloadsRoundTrip walks every payload type the kernel has
// registered for the wire and proves each survives Encode/Decode as a
// message payload with type and value intact. A type that cannot make the
// trip (unregistered nested payloads, non-encodable fields) would only
// surface on a real socket; this test surfaces it in CI.
func TestRegisteredPayloadsRoundTrip(t *testing.T) {
	exemplars := codec.Registered()
	if len(exemplars) < 20 {
		t.Fatalf("only %d registered payload types; kernel protocols are missing", len(exemplars))
	}
	for _, ex := range exemplars {
		ex := ex
		t.Run(fmt.Sprintf("%T", ex), func(t *testing.T) {
			payload := fill(ex)
			in := types.Message{
				From: types.Addr{Node: 1, Service: "a"},
				To:   types.Addr{Node: 2, Service: "b"},
				NIC:  1, Type: "roundtrip", Payload: payload,
			}
			data, err := codec.Encode(in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			out, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if reflect.TypeOf(out.Payload) != reflect.TypeOf(payload) {
				t.Fatalf("payload type changed: sent %T, got %T", payload, out.Payload)
			}
			if !payloadEqual(out.Payload, payload) {
				t.Fatalf("payload changed:\nsent %#v\ngot  %#v", payload, out.Payload)
			}
			if out.From != in.From || out.To != in.To || out.NIC != in.NIC || out.Type != in.Type {
				t.Fatalf("envelope changed: %+v vs %+v", out, in)
			}
		})
	}
	t.Logf("%d payload types round-tripped", len(exemplars))
}

// TestSizeWalksEveryRegisteredPayload weighs every registered payload
// type — filled, plus the nested exemplars and the payloads that carry an
// interface or a pointer — and requires at least the envelope, no panic
// and no size error. A binary payload must weigh exactly the envelope
// plus its encoding. On gob-family types, growing a top-level string or
// []byte field by n bytes must grow the size by exactly n.
func TestSizeWalksEveryRegisteredPayload(t *testing.T) {
	payloads := append([]any{
		simhost.SpawnReq{Service: types.SvcGSD, Spec: gsd.SpawnSpec{Partition: 1}, Token: 2},
		membership.ViewMsg{View: membership.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 4})},
		checkpoint.Repl{Owner: "pws/part0", Seq: 3, Data: []byte("state")},
	}, nestedExemplars()...)
	for _, ex := range codec.Registered() {
		payloads = append(payloads, fill(ex))
	}
	size := func(p any) int { return codec.Size(types.Message{Type: "size", Payload: p}) }
	before := codec.SizeErrors()
	grown := 0
	for _, p := range payloads {
		if got := size(p); got < codec.EnvelopeOverhead {
			t.Errorf("%T: size %d is below the envelope", p, got)
		}
		if bin, ok := p.(binaryPayload); ok {
			if got, want := size(p), codec.EnvelopeOverhead+len(bin.AppendWire(nil)); got != want {
				t.Errorf("%T: size %d, want the envelope plus its %d-byte encoding = %d", p, got, want-codec.EnvelopeOverhead, want)
			}
			continue
		}
		if reflect.TypeOf(p).Kind() != reflect.Struct {
			continue
		}
		base := size(p)
		v := reflect.New(reflect.TypeOf(p)).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Set(reflect.ValueOf(p))
			f := v.Field(i)
			switch {
			case !f.CanSet():
				continue
			case f.Kind() == reflect.String:
				f.SetString(f.String() + "12345")
			case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8:
				f.SetBytes(append(f.Bytes(), "12345"...))
			default:
				continue
			}
			grown++
			if got := size(v.Interface()); got != base+5 {
				t.Errorf("%T.%s: 5 more bytes moved the size %d -> %d", p, v.Type().Field(i).Name, base, got)
			}
		}
	}
	if got := codec.SizeErrors(); got != before {
		t.Fatalf("registered payloads counted %d size errors", got-before)
	}
	if grown < 20 {
		t.Fatalf("only %d string or []byte fields grown; gob payloads are missing", grown)
	}
	t.Logf("%d payloads weighed, %d fields grown", len(payloads), grown)
}
