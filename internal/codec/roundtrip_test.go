package codec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/types"

	// Pull in every package that registers wire payloads, so Registered()
	// covers the full kernel protocol surface (cluster transitively
	// imports core, simhost, gsd, watchd, detector, ppm, bulletin,
	// events, checkpoint, heartbeat, membership, rpc, ...; the schedulers
	// and the business runtime come on their own).
	_ "repro/internal/cluster"
	_ "repro/internal/pbs"
	_ "repro/internal/pws"
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

// payloadEqual is DeepEqual modulo one documented property of the plans
// (and of gob): an empty non-nil slice or map decodes as nil.
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

// TestSizeWalksEveryRegisteredPayload weighs every payload exemplar —
// one filled value per registered type plus the nested and spawn ones —
// and requires exactly the envelope plus its encoding, no panic and no
// size error.
func TestSizeWalksEveryRegisteredPayload(t *testing.T) {
	before := codec.SizeErrors()
	payloads := exemplars(t)
	for _, p := range payloads {
		data, err := codec.AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if got, want := codec.Size(types.Message{Type: "size", Payload: p}), codec.EnvelopeOverhead+len(data); got != want {
			t.Errorf("%T: size %d, want the envelope plus its %d-byte encoding = %d", p, got, len(data), want)
		}
	}
	if got := codec.SizeErrors(); got != before {
		t.Fatalf("registered payloads counted %d size errors", got-before)
	}
	t.Logf("%d payloads weighed", len(payloads))
}

// TestSpawnSpecsRoundTrip sends a spawn request carrying each spec that
// travels behind its interface field and gets the same spec back.
func TestSpawnSpecsRoundTrip(t *testing.T) {
	for _, req := range spawnRequests() {
		data, err := codec.Encode(types.Message{Type: "spawn", Payload: req})
		if err != nil {
			t.Fatalf("%#v: %v", req, err)
		}
		out, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%#v: %v", req, err)
		}
		if !reflect.DeepEqual(out.Payload, req) {
			t.Errorf("spawn request changed:\nsent %#v\ngot  %#v", req, out.Payload)
		}
	}
}

// randFill sets v, and every exported field, element, entry and target
// reachable from it, to random values. An interface field gets a
// random registered payload; containers get up to three entries, and an
// empty one stays nil, as it decodes. Below depth 0 containers, pointers
// and interfaces stay empty, so recursive types terminate.
func randFill(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e3)
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		v.SetString(string(b))
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			if rng.Intn(4) > 0 {
				v.Set(reflect.ValueOf(time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9))))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				randFill(rng, v.Field(i), depth)
			}
		}
	case reflect.Slice:
		if n := rng.Intn(4); depth > 0 && n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				randFill(rng, v.Index(i), depth-1)
			}
		}
	case reflect.Map:
		if n := rng.Intn(4); depth > 0 && n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				randFill(rng, k, depth-1)
				randFill(rng, e, depth-1)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Pointer:
		if depth > 0 && rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			randFill(rng, v.Elem(), depth-1)
		}
	case reflect.Interface:
		if all := codec.Registered(); depth > 0 && rng.Intn(3) > 0 {
			e := reflect.New(reflect.TypeOf(all[rng.Intn(len(all))])).Elem()
			if e.Type().AssignableTo(v.Type()) {
				randFill(rng, e, depth-1)
				v.Set(e)
			}
		}
	}
}

// TestRandomPayloadsRoundTrip fills every registered payload type with
// random values, 20 times over: Size must weigh exactly the envelope
// plus the encoding, and decoding the encoding must give back the value.
func TestRandomPayloadsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ex := range codec.Registered() {
		typ := reflect.TypeOf(ex)
		for i := 0; i < 20; i++ {
			v := reflect.New(typ)
			randFill(rng, v.Elem(), 3)
			payload := v.Elem().Interface()
			data, err := codec.AppendPayload(nil, payload)
			if err != nil {
				t.Fatalf("%v: encode: %v", typ, err)
			}
			if got, want := codec.Size(types.Message{Payload: payload}), codec.EnvelopeOverhead+len(data); got != want {
				t.Fatalf("%v: size %d, want %d for\n%#v", typ, got, want, payload)
			}
			out := reflect.New(typ)
			if err := codec.DecodePayload(data, out.Interface()); err != nil {
				t.Fatalf("%v: decode: %v", typ, err)
			}
			if !reflect.DeepEqual(out.Elem().Interface(), payload) {
				t.Fatalf("%v: round trip changed the value:\nsent %#v\ngot  %#v", typ, payload, out.Elem().Interface())
			}
		}
	}
}
