package codec

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"time"

	"repro/internal/wirebin"
)

// kind is what a plan node does with one value; compile picks it once
// per type, so encoding, decoding and sizing only switch on it.
type kind uint8

const (
	kInt       kind = iota // signed integers (and durations): zigzag varint
	kUint                  // unsigned integers: uvarint
	kFloat                 // float64: 8 bytes of IEEE bits
	kBool                  // one byte, 0 or 1
	kString                // length-prefixed, decoded through the intern table
	kBytes                 // length-prefixed, decoded into a fresh copy
	kTime                  // wirebin.AppendTime
	kSlice                 // count, then the elements; zero decodes to nil
	kMap                   // count, then key/value pairs in key order; zero decodes to nil
	kPointer               // presence byte, then the target
	kStruct                // the exported fields in declaration order, inline
	kInterface             // registered wire ID (0 for nil), then the body
)

// node is the compiled plan of one Go type.
type node struct {
	kind   kind
	typ    reflect.Type
	elem   *node   // slice and map values, pointer targets
	key    *node   // map keys
	fields []field // struct fields
}

type field struct {
	index int
	*node
}

var timeType = reflect.TypeOf(time.Time{})

// compile builds t's plan. Types seen earlier in the same compilation are
// shared, so a recursive type compiles to a cyclic plan. A field the
// plan cannot carry panics, naming the type and the field.
func compile(t reflect.Type, path string, seen map[reflect.Type]*node) *node {
	if n, ok := seen[t]; ok {
		return n
	}
	n := &node{typ: t}
	seen[t] = n
	unsupported := func(what string) {
		panic(fmt.Sprintf("codec: %s: %s has no wire encoding", path, what))
	}
	switch k := t.Kind(); {
	case t == timeType:
		n.kind = kTime
	case k >= reflect.Int && k <= reflect.Int64:
		n.kind = kInt
	case k >= reflect.Uint && k <= reflect.Uint64:
		n.kind = kUint
	case k == reflect.Float64:
		n.kind = kFloat
	case k == reflect.Bool:
		n.kind = kBool
	case k == reflect.String:
		n.kind = kString
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		n.kind = kBytes
	case k == reflect.Slice:
		n.kind, n.elem = kSlice, compile(t.Elem(), path+"[]", seen)
	case k == reflect.Map:
		n.kind = kMap
		n.key = compile(t.Key(), path+" key", seen)
		if n.key.kind != kInt && n.key.kind != kUint && n.key.kind != kString {
			unsupported("map key " + t.Key().String())
		}
		n.elem = compile(t.Elem(), path+" value", seen)
	case k == reflect.Pointer:
		n.kind, n.elem = kPointer, compile(t.Elem(), path, seen)
	case k == reflect.Interface:
		n.kind = kInterface
	case k == reflect.Struct:
		n.kind = kStruct
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				n.fields = append(n.fields, field{i, compile(f.Type, path+"."+f.Name, seen)})
			}
		}
	default:
		unsupported("kind " + k.String())
	}
	return n
}

// errEncode carries an encode-time failure (an interface holding an
// unregistered type) out of the recursive walk to the exported entry
// points, which recover it.
type errEncode struct{ error }

// concrete resolves an interface field's dynamic type to its payload
// type, which must be registered.
func concrete(v reflect.Value) *payloadType {
	pt := reg.Load().byType[v.Elem().Type()]
	if pt == nil {
		panic(errEncode{fmt.Errorf("codec: %v inside %v is not a registered payload type", v.Elem().Type(), v.Type())})
	}
	return pt
}

// timeOf reads a time.Time field without boxing a copy of it.
func timeOf(v reflect.Value) time.Time {
	if v.CanAddr() {
		return *v.Addr().Interface().(*time.Time)
	}
	return v.Interface().(time.Time)
}

// sortedKeys returns m's keys in ascending order, so equal maps encode to
// equal bytes.
func sortedKeys(m reflect.Value, k kind) []reflect.Value {
	keys := m.MapKeys()
	slices.SortFunc(keys, func(a, b reflect.Value) int {
		switch k {
		case kInt:
			return cmp.Compare(a.Int(), b.Int())
		case kUint:
			return cmp.Compare(a.Uint(), b.Uint())
		}
		return cmp.Compare(a.String(), b.String())
	})
	return keys
}

// append appends v's encoding to b.
func (n *node) append(b []byte, v reflect.Value) []byte {
	switch n.kind {
	case kInt:
		return wirebin.AppendVarint(b, v.Int())
	case kUint:
		return wirebin.AppendUvarint(b, v.Uint())
	case kFloat:
		return wirebin.AppendFloat64(b, v.Float())
	case kBool:
		return wirebin.AppendBool(b, v.Bool())
	case kString:
		return wirebin.AppendString(b, v.String())
	case kBytes:
		return wirebin.AppendBytes(b, v.Bytes())
	case kTime:
		return wirebin.AppendTime(b, timeOf(v))
	case kSlice:
		b = wirebin.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = n.elem.append(b, v.Index(i))
		}
	case kMap:
		b = wirebin.AppendUvarint(b, uint64(v.Len()))
		for _, k := range sortedKeys(v, n.key.kind) {
			b = n.key.append(b, k)
			b = n.elem.append(b, v.MapIndex(k))
		}
	case kPointer:
		b = wirebin.AppendBool(b, !v.IsNil())
		if !v.IsNil() {
			b = n.elem.append(b, v.Elem())
		}
	case kStruct:
		for _, f := range n.fields {
			b = f.append(b, v.Field(f.index))
		}
	case kInterface:
		if v.IsNil() {
			return wirebin.AppendUvarint(b, idNil)
		}
		pt := concrete(v)
		b = wirebin.AppendUvarint(b, uint64(pt.id))
		b = pt.append(b, v.Elem())
	}
	return b
}

// size is the length append would add for v, computed without encoding.
func (n *node) size(v reflect.Value) int {
	switch n.kind {
	case kInt:
		return wirebin.VarintLen(v.Int())
	case kUint:
		return wirebin.UvarintLen(v.Uint())
	case kFloat:
		return 8
	case kBool:
		return 1
	case kString, kBytes:
		return wirebin.UvarintLen(uint64(v.Len())) + v.Len()
	case kTime:
		return wirebin.TimeLen(timeOf(v))
	case kSlice:
		s := wirebin.UvarintLen(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			s += n.elem.size(v.Index(i))
		}
		return s
	case kMap:
		s := wirebin.UvarintLen(uint64(v.Len()))
		for it := v.MapRange(); it.Next(); {
			s += n.key.size(it.Key()) + n.elem.size(it.Value())
		}
		return s
	case kPointer:
		if v.IsNil() {
			return 1
		}
		return 1 + n.elem.size(v.Elem())
	case kStruct:
		s := 0
		for _, f := range n.fields {
			s += f.size(v.Field(f.index))
		}
		return s
	case kInterface:
		if v.IsNil() {
			return wirebin.UvarintLen(idNil)
		}
		pt := concrete(v)
		return wirebin.UvarintLen(uint64(pt.id)) + pt.size(v.Elem())
	}
	return 0
}

// read decodes r's next value into v, which must be settable. Malformed
// input sets r's sticky error; what v holds afterwards is then
// unspecified but encodable.
func (n *node) read(r *wirebin.Reader, v reflect.Value) {
	switch n.kind {
	case kInt:
		v.SetInt(r.Varint())
	case kUint:
		v.SetUint(r.Uvarint())
	case kFloat:
		v.SetFloat(r.Float64())
	case kBool:
		v.SetBool(r.Bool())
	case kString:
		v.SetString(r.String())
	case kBytes:
		v.SetBytes(r.Bytes())
	case kTime:
		*v.Addr().Interface().(*time.Time) = r.Time()
	case kSlice:
		// Grown in place from nil: a fresh backing array, and no boxed
		// slice header as reflect.MakeSlice would allocate. SliceLen
		// reads 0 once r has failed.
		v.SetZero()
		if cnt := r.SliceLen(); cnt > 0 {
			v.Grow(cnt)
			v.SetLen(cnt)
			for i := 0; i < cnt; i++ {
				n.elem.read(r, v.Index(i))
			}
		}
	case kMap:
		v.SetZero()
		if cnt := r.SliceLen(); cnt > 0 {
			v.Set(reflect.MakeMapWithSize(n.typ, cnt))
			key, val := reflect.New(n.key.typ).Elem(), reflect.New(n.elem.typ).Elem()
			for i := 0; i < cnt; i++ {
				n.key.read(r, key)
				n.elem.read(r, val)
				v.SetMapIndex(key, val)
			}
		}
	case kPointer:
		if !r.Bool() {
			v.SetZero()
			return
		}
		p := reflect.New(n.elem.typ)
		n.elem.read(r, p.Elem())
		v.Set(p)
	case kStruct:
		for _, f := range n.fields {
			f.read(r, v.Field(f.index))
		}
	case kInterface:
		id := r.Uvarint() // 0 once r has failed
		if id == idNil {
			v.SetZero()
			return
		}
		pt := reg.Load().byID[uint16(id)]
		if pt == nil || uint64(pt.id) != id || !pt.typ.AssignableTo(n.typ) {
			r.Fail(fmt.Errorf("%w: wire ID %d cannot fill a %v", wirebin.ErrMalformed, id, n.typ))
			v.SetZero()
			return
		}
		e := reflect.New(pt.typ).Elem()
		pt.read(r, e)
		v.Set(e)
	}
}
