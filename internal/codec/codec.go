// Package codec defines the wire format of Phoenix kernel messages: the
// binary message envelope (format v3), the typed payload registry, and
// the size accounting the simulated network uses for bandwidth
// measurements.
//
// A message body is the envelope (addresses, plane, type tag, send time)
// followed by the payload. Payloads come in two families:
//
//   - Hot payloads implement Payload: a hand-rolled, reflection-free
//     binary codec identified by a uint16 wire ID. The steady-state
//     encode path (AppendMessage into a pooled buffer, AppendWire for
//     the payload) allocates nothing; DecodeWire into a reused value
//     allocates nothing either.
//   - Every other registered payload falls back to gob (wire ID 1), so
//     no registered type is ever unencodable — cold control-plane
//     payloads keep riding reflection at reflection prices.
//
// Payload types register from init functions: RegisterPayload for the
// binary family, RegisterGob for the gob family. Registered() exposes one
// exemplar per type from both families, which the registry-wide
// round-trip test walks so nothing reaches a real socket unencodable.
//
// Size weighs a message for the simulated network without encoding it; gob
// payloads by a bounded reflection walk over their exported fields.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"log"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
	"repro/internal/wirebin"
)

// Payload is the hand-rolled binary codec of one hot payload type,
// implemented with pointer receivers for DecodeWire. AppendWire appends
// the payload's encoding to buf and returns it (append-style, so pooled
// buffers absorb the bytes); DecodeWire overwrites the receiver from
// exactly data, reusing the receiver's slice capacity where it can, and
// must return an error — never panic — on malformed input.
type Payload interface {
	WireID() uint16
	AppendWire(buf []byte) []byte
	DecodeWire(data []byte) error
}

// wireAppender is the encode half of Payload: the methods in the value
// method set, which is what a payload stored by value in Message.Payload
// exposes.
type wireAppender interface {
	WireID() uint16
	AppendWire(buf []byte) []byte
}

// Reserved wire IDs of the envelope's payload field. IDs below
// FirstPayloadID belong to the format itself.
const (
	idNil = 0 // no payload
	idGob = 1 // gob-encoded payload (the automatic fallback family)

	// FirstPayloadID is the lowest wire ID RegisterPayload accepts.
	// Assigned ranges (see DESIGN §3f): 16+ types, 32+ heartbeat,
	// 48+ bulletin, 64+ events, 80+ watchd, 96+ gossip.
	FirstPayloadID = 16
)

// Sizer lets a payload report its wire size directly, bypassing the
// encoder on hot size-accounting paths (the simulated network).
type Sizer interface {
	WireSize() int
}

// EnvelopeOverhead approximates the per-message framing cost on a real
// wire: addresses, message type tag, and length framing.
const EnvelopeOverhead = 32

var registerOnce sync.Once

type payloadEntry struct {
	fn  func() Payload
	typ reflect.Type // element (value) type behind the factory's pointer
}

// registry is the immutable snapshot the hot paths read lock-free;
// registration (init-time) copies on write under regMu.
type registry struct {
	payloads map[uint16]payloadEntry   // binary family, by wire ID
	binTypes map[reflect.Type]uint16   // value type -> wire ID
	gobTypes map[reflect.Type]struct{} // both families, pointers stripped
}

func (r *registry) clone() *registry {
	return &registry{payloads: maps.Clone(r.payloads), binTypes: maps.Clone(r.binTypes), gobTypes: maps.Clone(r.gobTypes)}
}

var (
	regMu      sync.Mutex
	registered []any // one exemplar per type, both families
	reg        atomic.Pointer[registry]
)

func init() {
	reg.Store(&registry{payloads: map[uint16]payloadEntry{}, binTypes: map[reflect.Type]uint16{}, gobTypes: map[reflect.Type]struct{}{}})
}

// baseType strips t's pointers: to gob, *T and T are one registration.
func baseType(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t
}

// RegisterPayload records a binary payload type under a wire ID. fn must
// return a fresh pointer-shaped Payload whose WireID matches id.
// Duplicate or reserved IDs panic at init time with a message naming the
// offender — a silently shadowed ID would misdecode every frame.
func RegisterPayload(id uint16, fn func() Payload) {
	p := fn()
	rv := reflect.ValueOf(p)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		panic(fmt.Sprintf("codec: RegisterPayload(%d): factory must return a non-nil pointer, got %T", id, p))
	}
	if id < FirstPayloadID {
		panic(fmt.Sprintf("codec: RegisterPayload(%d) for %T: IDs below %d are reserved for the wire format", id, p, FirstPayloadID))
	}
	if got := p.WireID(); got != id {
		panic(fmt.Sprintf("codec: RegisterPayload(%d) for %T, but its WireID() is %d", id, p, got))
	}
	exemplar := rv.Elem().Interface()
	gob.Register(exemplar) // gob payloads carry binary types behind interface fields (a spawn request's Spec)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, dup := reg.Load().payloads[id]; dup {
		panic(fmt.Sprintf("codec: wire ID %d registered twice: %v and %v", id, prev.typ, rv.Elem().Type()))
	}
	next := reg.Load().clone()
	next.payloads[id] = payloadEntry{fn: fn, typ: rv.Elem().Type()}
	next.binTypes[rv.Elem().Type()] = id
	next.gobTypes[rv.Elem().Type()] = struct{}{}
	reg.Store(next)
	registered = append(registered, exemplar)
}

// RegisterGob records a payload type with the gob fallback encoder —
// the right registration for cold control-plane payloads that do not
// justify a hand-rolled codec. Packages that define payload structs call
// it from an init function.
func RegisterGob(v any) {
	gob.Register(v)
	regMu.Lock()
	defer regMu.Unlock()
	next := reg.Load().clone()
	next.gobTypes[baseType(reflect.TypeOf(v))] = struct{}{}
	reg.Store(next)
	registered = append(registered, v)
}

// Registered returns one exemplar value per payload type passed to
// RegisterPayload or RegisterGob, in registration order. The wire-format
// round-trip test walks this list so no payload type — of either family —
// can reach a real socket unencodable.
func Registered() []any {
	registerOnce.Do(registerBuiltins)
	regMu.Lock()
	defer regMu.Unlock()
	return append([]any(nil), registered...)
}

// registerBuiltins registers the leaf payload types owned by
// internal/types (which cannot import codec) plus the plain-container
// payloads used by tooling.
func registerBuiltins() {
	RegisterPayload(16, func() Payload { return new(types.Event) })
	RegisterPayload(17, func() Payload { return new(types.ResourceStats) })
	RegisterPayload(18, func() Payload { return new(types.AppState) })
	RegisterGob(map[string]string{})
	RegisterGob([]string{})
	wirebin.Intern(
		types.SvcAgent, types.SvcWD, types.SvcGSD, types.SvcES, types.SvcDB,
		types.SvcCkpt, types.SvcConfig, types.SvcSecurity, types.SvcPPM,
		types.SvcDetector, types.SvcPWS, types.SvcPBS, types.SvcPBSMom,
		types.SvcGridView, types.SvcJobRuntime, types.SvcGossip,
	)
}

// lookupBinary resolves the wire ID of a payload value's type, if the
// type is binary-registered. Lock-free: hot paths call it per message.
func lookupBinary(v any) (uint16, bool) {
	id, ok := reg.Load().binTypes[reflect.TypeOf(v)]
	return id, ok
}

// AppendMessage appends the v3 body of one message to buf and returns
// it — the steady-state encode path: with a binary-family payload and a
// buffer of sufficient capacity it performs zero allocations.
//
// Body layout (see DESIGN §3f):
//
//	u16 big-endian payload wire ID (0 none, 1 gob, >=16 binary)
//	zigzag  from node    | string from service
//	zigzag  to node      | string to service
//	zigzag  NIC          | string message type
//	time    sent
//	payload bytes (the rest of the body, unframed)
func AppendMessage(buf []byte, msg types.Message) ([]byte, error) {
	registerOnce.Do(registerBuiltins)
	id := uint16(idNil)
	var wa wireAppender
	if msg.Payload != nil {
		id = idGob
		if a, ok := msg.Payload.(wireAppender); ok {
			if rid, found := lookupBinary(msg.Payload); found {
				id, wa = rid, a
			}
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = wirebin.AppendVarint(buf, int64(msg.From.Node))
	buf = wirebin.AppendString(buf, msg.From.Service)
	buf = wirebin.AppendVarint(buf, int64(msg.To.Node))
	buf = wirebin.AppendString(buf, msg.To.Service)
	buf = wirebin.AppendVarint(buf, int64(msg.NIC))
	buf = wirebin.AppendString(buf, msg.Type)
	buf = wirebin.AppendTime(buf, msg.Sent)
	switch id {
	case idNil:
	case idGob:
		// Encode a branch-local copy: &msg.Payload would make the whole
		// msg argument escape and cost the binary path an allocation too.
		p := msg.Payload
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&p); err != nil {
			return nil, fmt.Errorf("codec: encode %s payload %T: %w", msg.Type, p, err)
		}
		buf = append(buf, gb.Bytes()...)
	default:
		buf = wa.AppendWire(buf)
	}
	return buf, nil
}

// DecodeMessage decodes a v3 body. It never panics, whatever the bytes —
// malformed envelopes and payloads (both families) surface as errors.
// The returned message's payload is a value of the registered type, as
// handlers assert; boxing it is this path's one unavoidable allocation.
func DecodeMessage(data []byte) (types.Message, error) {
	registerOnce.Do(registerBuiltins)
	if len(data) < 2 {
		return types.Message{}, fmt.Errorf("codec: body too short (%d bytes)", len(data))
	}
	id := binary.BigEndian.Uint16(data)
	r := wirebin.NewReader(data[2:])
	var msg types.Message
	msg.From.Node = types.NodeID(r.Varint())
	msg.From.Service = r.String()
	msg.To.Node = types.NodeID(r.Varint())
	msg.To.Service = r.String()
	msg.NIC = int(r.Varint())
	msg.Type = r.String()
	msg.Sent = r.Time()
	if err := r.Err(); err != nil {
		return types.Message{}, fmt.Errorf("codec: decode envelope: %w", err)
	}
	body := r.Rest()
	switch id {
	case idNil:
		if len(body) != 0 {
			return types.Message{}, fmt.Errorf("codec: %d payload bytes after nil-payload envelope", len(body))
		}
	case idGob:
		p, err := gobDecodePayload(body)
		if err != nil {
			return types.Message{}, err
		}
		msg.Payload = p
	default:
		e, ok := reg.Load().payloads[id]
		if !ok {
			return types.Message{}, fmt.Errorf("codec: unknown payload wire ID %d", id)
		}
		p := e.fn()
		if err := safeDecodeWire(p, body); err != nil {
			return types.Message{}, fmt.Errorf("codec: decode %v payload: %w", e.typ, err)
		}
		msg.Payload = reflect.ValueOf(p).Elem().Interface()
	}
	return msg, nil
}

// safeDecodeWire runs one DecodeWire under a recover: the Payload
// contract forbids panics, but a node must survive a contract violation
// on adversarial input too.
func safeDecodeWire(p Payload, data []byte) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("codec: DecodeWire panic: %v", rec)
		}
	}()
	return p.DecodeWire(data)
}

// gobDecodePayload decodes one gob-fallback payload, converting decoder
// panics (possible on adversarial gob streams) to errors.
func gobDecodePayload(data []byte) (p any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("codec: gob payload decode panic: %v", rec)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("codec: decode gob payload: %w", err)
	}
	return p, nil
}

// Encode serialises a message body (envelope + payload). Hot callers —
// the wire transport — use AppendMessage with a pooled buffer instead;
// Encode exists for traces, golden tests and the command-line tools.
func Encode(msg types.Message) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// Decode deserialises a message produced by Encode or AppendMessage.
func Decode(data []byte) (types.Message, error) {
	return DecodeMessage(data)
}

// sizeErrors counts messages whose payload type was never registered
// during Size accounting; such messages are reported as envelope-only, so
// a nonzero count means the bandwidth figures are an undercount. The
// first occurrence is also logged, so the lie cannot stay quiet.
var (
	sizeErrors  atomic.Uint64
	sizeErrOnce sync.Once
	sizeScratch = sync.Pool{New: func() any { return new(sizeBuf) }}
)

type sizeBuf struct{ b []byte }

// SizeErrors reports how many Size calls hit an unregistered payload type
// since process start.
func SizeErrors() uint64 { return sizeErrors.Load() }

// Size reports the approximate wire size of a message in bytes without
// encoding it: Sizer payloads report it themselves, binary payloads are
// measured exactly through their codec (into a pooled scratch buffer),
// nil payloads cost only the envelope, and gob payloads are weighed by
// walkSize in O(fields), not O(bytes), without gob's type description.
// Payloads of an unregistered type count as the envelope alone, add to
// SizeErrors, and log once. Only a walk through a map allocates.
func Size(msg types.Message) int {
	registerOnce.Do(registerBuiltins)
	switch p := msg.Payload.(type) {
	case nil:
		return EnvelopeOverhead
	case Sizer:
		return EnvelopeOverhead + p.WireSize()
	case wireAppender:
		if _, ok := lookupBinary(msg.Payload); ok {
			sb := sizeScratch.Get().(*sizeBuf)
			out := p.AppendWire(sb.b[:0])
			n := len(out)
			sb.b = out // keep any growth for the next caller
			sizeScratch.Put(sb)
			return EnvelopeOverhead + n
		}
	}
	if _, ok := reg.Load().gobTypes[baseType(reflect.TypeOf(msg.Payload))]; !ok {
		sizeErrors.Add(1)
		sizeErrOnce.Do(func() {
			log.Printf("codec: Size: unregistered %T payload in %q message counted as envelope-only (first of possibly many; see codec.SizeErrors)",
				msg.Payload, msg.Type)
		})
		return EnvelopeOverhead
	}
	return EnvelopeOverhead + walkSize(reflect.ValueOf(msg.Payload), 0)
}

const (
	maxWalkDepth = 16 // only self-referential types nest deeper; what lies below is not counted
	gobTimeSize  = 15 // a time.Time's gob (MarshalBinary) length
)

var timeType = reflect.TypeOf(time.Time{})

// walkSize approximates the gob-encoded size of v's data: fixed-width
// kinds count their width, strings and byte slices their length plus
// one, containers the sum of their elements, pointers and interfaces what
// they point to, and a time.Time its gob length. Unexported fields are
// skipped and channels and funcs count nothing, as gob sends none of them.
func walkSize(v reflect.Value, depth int) int {
	t, k := v.Type(), v.Kind()
	switch {
	case depth > maxWalkDepth:
	case k >= reflect.Bool && k <= reflect.Complex128:
		return int(t.Size())
	case k == reflect.String || k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		return v.Len() + 1
	case k == reflect.Slice || k == reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += walkSize(v.Index(i), depth+1)
		}
		return n
	case k == reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += walkSize(it.Key(), depth+1) + walkSize(it.Value(), depth+1)
		}
		return n
	case (k == reflect.Pointer || k == reflect.Interface) && !v.IsNil():
		return walkSize(v.Elem(), depth+1)
	case t == timeType:
		return gobTimeSize
	case k == reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInterface() { // exported
				n += walkSize(f, depth+1)
			}
		}
		return n
	}
	return 0
}
