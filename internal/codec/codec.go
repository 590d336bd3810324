// Package codec defines the wire format of Phoenix kernel messages: the
// binary message envelope (format v3), the typed payload registry, and
// the size accounting the simulated network uses for bandwidth
// measurements.
//
// A message body is the envelope (addresses, plane, type tag, send time)
// followed by the payload. Every payload type registers once, from an
// init function, with Register(id, T{}): a uint16 wire ID in its
// package's range and an exemplar. Registration compiles the type's plan
// — one encoding rule for every payload (see plan.go and DESIGN §3f):
// exported fields in declaration order, integers as varints, strings and
// byte slices length-prefixed, slices and maps as a count then elements
// (map keys sorted), pointers behind a presence byte, nested structs
// inline, and an interface field as its content's wire ID then body.
// A type the plan cannot carry panics at registration.
//
// The steady-state paths allocate nothing: AppendMessage into a buffer
// with capacity, DecodePayload into a reused value, and Size, which
// measures a payload's encoding without producing it.
package codec

import (
	"encoding/binary"
	"fmt"
	"log"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/wirebin"
)

// Reserved wire IDs of the envelope's payload field. IDs below
// FirstPayloadID belong to the format itself.
const (
	idNil = 0 // no payload

	// FirstPayloadID is the lowest wire ID Register accepts. Each
	// package owns a range of 16 (see DESIGN §3f).
	FirstPayloadID = 16
)

// EnvelopeOverhead approximates the per-message framing cost on a real
// wire: addresses, message type tag, and length framing.
const EnvelopeOverhead = 32

// payloadType is one registered payload type: its wire ID and its plan,
// whose typ is the registered type. direct marks a pointer-shaped type,
// which an interface holds in its data word rather than behind it.
type payloadType struct {
	id     uint16
	direct bool
	*node
}

// registry is the immutable snapshot the hot paths read lock-free;
// registration (init-time) copies on write under regMu.
type registry struct {
	byID   map[uint16]*payloadType
	byType map[reflect.Type]*payloadType
}

var (
	regMu      sync.Mutex
	registered []any // one exemplar per type, in registration order
	reg        atomic.Pointer[registry]
)

func init() {
	reg.Store(&registry{byID: map[uint16]*payloadType{}, byType: map[reflect.Type]*payloadType{}})
	// The leaf payload types of internal/types, which cannot import codec.
	Register(16, types.Event{})
	Register(17, types.ResourceStats{})
	Register(18, types.AppState{})
	wirebin.Intern(
		types.SvcAgent, types.SvcWD, types.SvcGSD, types.SvcES, types.SvcDB,
		types.SvcCkpt, types.SvcConfig, types.SvcSecurity, types.SvcPPM,
		types.SvcDetector, types.SvcPWS, types.SvcPBS, types.SvcPBSMom,
		types.SvcGridView, types.SvcJobRuntime, types.SvcGossip,
		// Event type tags are a closed vocabulary too.
		string(types.EvNodeSuspect), string(types.EvNetSuspect), string(types.EvServiceSuspect),
		string(types.EvMemberSuspect), string(types.EvNodeFail), string(types.EvNodeRecover),
		string(types.EvNetFail), string(types.EvNetRecover), string(types.EvProcFail),
		string(types.EvProcRecover), string(types.EvServiceFail), string(types.EvServiceRecover),
		string(types.EvMemberFail), string(types.EvMemberRecover), string(types.EvJobStart),
		string(types.EvJobFinish), string(types.EvJobFail), string(types.EvConfigChange),
	)
}

// Register records exemplar's type under a wire ID and compiles its
// plan. Reserved or duplicate IDs, a type registered twice, and a field
// the plan cannot carry all panic at init time, naming the offender — a
// silently shadowed ID would misdecode every frame.
func Register(id uint16, exemplar any) {
	t := reflect.TypeOf(exemplar)
	if t == nil {
		panic(fmt.Sprintf("codec: Register(%d): nil exemplar", id))
	}
	if id < FirstPayloadID {
		panic(fmt.Sprintf("codec: Register(%d) for %v: IDs below %d are reserved for the wire format", id, t, FirstPayloadID))
	}
	pt := &payloadType{id, pointerShaped(t), compile(t, t.String(), map[reflect.Type]*node{})}
	regMu.Lock()
	defer regMu.Unlock()
	if prev := reg.Load().byID[id]; prev != nil {
		panic(fmt.Sprintf("codec: wire ID %d registered twice: %v and %v", id, prev.typ, t))
	}
	if prev := reg.Load().byType[t]; prev != nil {
		panic(fmt.Sprintf("codec: %v registered twice: IDs %d and %d", t, prev.id, id))
	}
	next := &registry{byID: maps.Clone(reg.Load().byID), byType: maps.Clone(reg.Load().byType)}
	next.byID[id] = pt
	next.byType[t] = pt
	reg.Store(next)
	registered = append(registered, exemplar)
}

// Registered returns one exemplar value per registered payload type, in
// registration order. The wire-format tests walk this list so no payload
// type can reach a real socket unencodable.
func Registered() []any {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]any(nil), registered...)
}

// lookup resolves a payload value's registered type, nil if none.
// Lock-free: hot paths call it per message.
func lookup(v any) *payloadType { return reg.Load().byType[reflect.TypeOf(v)] }

// AppendPayload appends v's payload encoding — no envelope — to buf. It
// fails only when v's type, or a type inside one of its interface
// fields, is not registered.
func AppendPayload(buf []byte, v any) ([]byte, error) {
	pt := lookup(v)
	if pt == nil {
		return buf, fmt.Errorf("codec: %T is not a registered payload type", v)
	}
	return pt.appendTo(buf, v)
}

// DecodePayload overwrites *ptr, which must point to a registered
// payload type, from exactly data (an AppendPayload encoding). Decoding
// into a reused value allocates only what the payload's slices, maps,
// pointers, interface contents and uninterned strings need.
func DecodePayload(data []byte, ptr any) error {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: DecodePayload into %T, want a non-nil pointer", ptr)
	}
	pt := reg.Load().byType[rv.Type().Elem()]
	if pt == nil {
		return fmt.Errorf("codec: %v is not a registered payload type", rv.Type().Elem())
	}
	rv.Elem().SetZero() // unexported fields (a shard map's cached ring) must not outlive the value
	return pt.decode(data, rv)
}

// AppendMessage appends the v3 body of one message to buf and returns
// it — the steady-state encode path: with a buffer of sufficient
// capacity it performs zero allocations, unless the payload carries a
// map or is pointer-shaped (see at).
//
// Body layout (see DESIGN §3f):
//
//	u16 big-endian payload wire ID (0 none, >=16 registered)
//	zigzag  from node    | string from service
//	zigzag  to node      | string to service
//	zigzag  NIC          | string message type
//	time    sent
//	payload bytes (the rest of the body, unframed)
func AppendMessage(buf []byte, msg types.Message) ([]byte, error) {
	var pt *payloadType
	id := uint16(idNil)
	if msg.Payload != nil {
		if pt = lookup(msg.Payload); pt == nil {
			return nil, fmt.Errorf("codec: encode %s payload: %T is not a registered payload type", msg.Type, msg.Payload)
		}
		id = pt.id
	}
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = wirebin.AppendVarint(buf, int64(msg.From.Node))
	buf = wirebin.AppendString(buf, msg.From.Service)
	buf = wirebin.AppendVarint(buf, int64(msg.To.Node))
	buf = wirebin.AppendString(buf, msg.To.Service)
	buf = wirebin.AppendVarint(buf, int64(msg.NIC))
	buf = wirebin.AppendString(buf, msg.Type)
	buf = wirebin.AppendTime(buf, msg.Sent)
	if pt == nil {
		return buf, nil
	}
	buf, err := pt.appendTo(buf, msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("codec: encode %s payload: %w", msg.Type, err)
	}
	return buf, nil
}

// DecodeMessage decodes a v3 body. It never panics, whatever the bytes —
// malformed envelopes and payloads surface as errors, and so does an
// unknown payload wire ID. The returned message's payload is a value of
// the registered type, as handlers assert.
func DecodeMessage(data []byte) (types.Message, error) {
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
	if id == idNil {
		if len(body) != 0 {
			return types.Message{}, fmt.Errorf("codec: %d payload bytes after nil-payload envelope", len(body))
		}
		return msg, nil
	}
	pt := reg.Load().byID[id]
	if pt == nil {
		return types.Message{}, fmt.Errorf("codec: unknown payload wire ID %d", id)
	}
	v := reflect.New(pt.typ)
	if err := pt.decode(body, v); err != nil {
		return types.Message{}, fmt.Errorf("codec: decode %v payload: %w", pt.typ, err)
	}
	msg.Payload = v.Elem().Interface()
	return msg, nil
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

// sizeErrors counts messages whose payload could not be measured — its
// type, or one inside an interface field, was never registered — during
// Size accounting; such messages are reported as envelope-only, so a
// nonzero count means the bandwidth figures are an undercount. The first
// occurrence is also logged, so the lie cannot stay quiet.
var (
	sizeErrors  atomic.Uint64
	sizeErrOnce sync.Once
)

// SizeErrors reports how many Size calls hit an unregistered payload type
// since process start.
func SizeErrors() uint64 { return sizeErrors.Load() }

// Size reports the wire size of a message in bytes: EnvelopeOverhead
// plus the exact length of the payload's encoding, measured by its plan
// without encoding it. A nil payload costs nothing; an unregistered one
// counts as the envelope alone, adds to SizeErrors, and logs once. Only
// a payload carrying a map, or a pointer-shaped one (see at), allocates.
func Size(msg types.Message) (n int) {
	if msg.Payload == nil {
		return EnvelopeOverhead
	}
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(errEncode); !ok {
				panic(rec)
			}
			n = sizeError(msg)
		}
	}()
	pt := lookup(msg.Payload)
	if pt == nil {
		return sizeError(msg)
	}
	return EnvelopeOverhead + pt.size(pt.at(msg.Payload))
}

func sizeError(msg types.Message) int {
	sizeErrors.Add(1)
	sizeErrOnce.Do(func() {
		log.Printf("codec: Size: unregistered payload type in %T %q message counted as envelope-only (first of possibly many; see codec.SizeErrors)",
			msg.Payload, msg.Type)
	})
	return EnvelopeOverhead
}
