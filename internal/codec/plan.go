package codec

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/wirebin"
)

// node is the compiled plan of one Go type: three closures over the
// address of a value of typ, which work on precomputed field offsets and
// element widths instead of reflect.Value. This file is the only one in
// the package that touches unsafe.
type node struct {
	typ  reflect.Type
	enc  func(b []byte, p unsafe.Pointer) []byte
	size func(p unsafe.Pointer) int
	// dec overwrites the value at p from r. Malformed input sets r's
	// sticky error; what p holds afterwards is then unspecified but
	// encodable.
	dec func(r *wirebin.Reader, p unsafe.Pointer)
	// cmp orders two map keys natively (integer and string kinds only).
	cmp func(a, b unsafe.Pointer) int
}

type field struct {
	off uintptr
	*node
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

var timeType = reflect.TypeOf(time.Time{})

// compile builds t's plan. Types seen earlier in the same compilation are
// shared, so a recursive type compiles to a cyclic plan: closures reach
// their children through node pointers, resolved when they run. A field
// the plan cannot carry panics, naming the type and the field.
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
	case t == timeType: // wirebin.AppendTime
		n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendTime(b, *(*time.Time)(p)) }
		n.size = func(p unsafe.Pointer) int { return wirebin.TimeLen(*(*time.Time)(p)) }
		n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*time.Time)(p) = r.Time() }
	case k >= reflect.Int && k <= reflect.Int64: // zigzag varint, picked by width
		[...]func(*node){1: varint[int8], 2: varint[int16], 4: varint[int32], 8: varint[int64]}[t.Size()](n)
	case k >= reflect.Uint && k <= reflect.Uint64: // uvarint
		[...]func(*node){1: uvarint[uint8], 2: uvarint[uint16], 4: uvarint[uint32], 8: uvarint[uint64]}[t.Size()](n)
	case k == reflect.Float64: // 8 bytes of IEEE bits
		n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendFloat64(b, *(*float64)(p)) }
		n.size = func(unsafe.Pointer) int { return 8 }
		n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*float64)(p) = r.Float64() }
	case k == reflect.Bool: // one byte, 0 or 1
		n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendBool(b, *(*bool)(p)) }
		n.size = func(unsafe.Pointer) int { return 1 }
		n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*bool)(p) = r.Bool() }
	case k == reflect.String: // length-prefixed, decoded through the intern table
		n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendString(b, *(*string)(p)) }
		n.size = func(p unsafe.Pointer) int { return lenLen(len(*(*string)(p))) }
		n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*string)(p) = r.String() }
		n.cmp = func(a, b unsafe.Pointer) int { return cmp.Compare(*(*string)(a), *(*string)(b)) }
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		// Length-prefixed, decoded into a fresh copy; a named byte type
		// shares []byte's layout, so either way it is one copy.
		n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendBytes(b, *(*[]byte)(p)) }
		n.size = func(p unsafe.Pointer) int { return lenLen(len(*(*[]byte)(p))) }
		n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*[]byte)(p) = r.Bytes() }
	case k == reflect.Slice: // count, then the elements; zero decodes to nil
		slicePlan(n, compile(t.Elem(), path+"[]", seen))
	case k == reflect.Map: // count, then key/value pairs in key order; zero decodes to nil
		key := compile(t.Key(), path+" key", seen)
		if key.cmp == nil {
			unsupported("map key " + t.Key().String())
		}
		mapPlan(n, key, compile(t.Elem(), path+" value", seen))
	case k == reflect.Pointer: // presence byte, then the target
		pointerPlan(n, compile(t.Elem(), path, seen))
	case k == reflect.Interface: // registered wire ID (0 for nil), then the body
		interfacePlan(n)
	case k == reflect.Struct: // the exported fields in declaration order, inline
		var fields []field
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, field{f.Offset, compile(f.Type, path+"."+f.Name, seen)})
			}
		}
		structPlan(n, fields)
	default:
		unsupported("kind " + k.String())
	}
	return n
}

// lenLen is the encoded length of a length-prefixed field of n bytes.
func lenLen(n int) int { return wirebin.UvarintLen(uint64(n)) + n }

func varint[T int8 | int16 | int32 | int64](n *node) {
	n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendVarint(b, int64(*(*T)(p))) }
	n.size = func(p unsafe.Pointer) int { return wirebin.VarintLen(int64(*(*T)(p))) }
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*T)(p) = T(r.Varint()) }
	n.cmp = func(a, b unsafe.Pointer) int { return cmp.Compare(*(*T)(a), *(*T)(b)) }
}

func uvarint[T uint8 | uint16 | uint32 | uint64](n *node) {
	n.enc = func(b []byte, p unsafe.Pointer) []byte { return wirebin.AppendUvarint(b, uint64(*(*T)(p))) }
	n.size = func(p unsafe.Pointer) int { return wirebin.UvarintLen(uint64(*(*T)(p))) }
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) { *(*T)(p) = T(r.Uvarint()) }
	n.cmp = func(a, b unsafe.Pointer) int { return cmp.Compare(*(*T)(a), *(*T)(b)) }
}

func structPlan(n *node, fields []field) {
	n.enc = func(b []byte, p unsafe.Pointer) []byte {
		for _, f := range fields {
			b = f.enc(b, unsafe.Add(p, f.off))
		}
		return b
	}
	n.size = func(p unsafe.Pointer) int {
		s := 0
		for _, f := range fields {
			s += f.size(unsafe.Add(p, f.off))
		}
		return s
	}
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) {
		for _, f := range fields {
			f.dec(r, unsafe.Add(p, f.off))
		}
	}
}

func slicePlan(n, elem *node) {
	w := elem.typ.Size()
	n.enc = func(b []byte, p unsafe.Pointer) []byte {
		s := (*sliceHeader)(p)
		b = wirebin.AppendUvarint(b, uint64(s.len))
		for i := 0; i < s.len; i++ {
			b = elem.enc(b, unsafe.Add(s.data, uintptr(i)*w))
		}
		return b
	}
	n.size = func(p unsafe.Pointer) int {
		s := (*sliceHeader)(p)
		sum := wirebin.UvarintLen(uint64(s.len))
		for i := 0; i < s.len; i++ {
			sum += elem.size(unsafe.Add(s.data, uintptr(i)*w))
		}
		return sum
	}
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) {
		// Grown in place from nil: a fresh zeroed backing array, and no
		// boxed slice header as reflect.MakeSlice would allocate.
		// SliceLen reads 0 once r has failed.
		v := reflect.NewAt(n.typ, p).Elem()
		v.SetZero()
		if cnt := r.SliceLen(); cnt > 0 {
			v.Grow(cnt)
			v.SetLen(cnt)
			s := (*sliceHeader)(p)
			for i := 0; i < cnt; i++ {
				elem.dec(r, unsafe.Add(s.data, uintptr(i)*w))
			}
		}
	}
}

// mapPlan encodes a map's entries in ascending key order, so equal maps
// encode to equal bytes. The encoder iterates the map once, copying its
// keys and values into two scratch arrays, and sorts an index over them
// with the key's native comparison.
func mapPlan(n, key, elem *node) {
	t := n.typ
	keys, vals := reflect.SliceOf(t.Key()), reflect.SliceOf(t.Elem())
	kw, vw := t.Key().Size(), t.Elem().Size()
	n.enc = func(b []byte, p unsafe.Pointer) []byte {
		m := reflect.NewAt(t, p).Elem()
		cnt := m.Len()
		b = wirebin.AppendUvarint(b, uint64(cnt))
		if cnt == 0 {
			return b
		}
		ks, vs := reflect.MakeSlice(keys, cnt, cnt), reflect.MakeSlice(vals, cnt, cnt)
		var it reflect.MapIter
		it.Reset(m)
		for i := 0; it.Next(); i++ {
			ks.Index(i).SetIterKey(&it)
			vs.Index(i).SetIterValue(&it)
		}
		kp, vp := ks.UnsafePointer(), vs.UnsafePointer()
		order := make([]uintptr, cnt)
		for i := range order {
			order[i] = uintptr(i)
		}
		slices.SortFunc(order, func(i, j uintptr) int { return key.cmp(unsafe.Add(kp, i*kw), unsafe.Add(kp, j*kw)) })
		for _, i := range order {
			b = key.enc(b, unsafe.Add(kp, i*kw))
			b = elem.enc(b, unsafe.Add(vp, i*vw))
		}
		return b
	}
	n.size = func(p unsafe.Pointer) int {
		m := reflect.NewAt(t, p).Elem()
		s := wirebin.UvarintLen(uint64(m.Len()))
		if m.Len() == 0 {
			return s
		}
		k, v := reflect.New(t.Key()), reflect.New(t.Elem())
		var it reflect.MapIter
		it.Reset(m)
		for it.Next() {
			k.Elem().SetIterKey(&it)
			v.Elem().SetIterValue(&it)
			s += key.size(k.UnsafePointer()) + elem.size(v.UnsafePointer())
		}
		return s
	}
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) {
		m := reflect.NewAt(t, p).Elem()
		m.SetZero()
		cnt := r.SliceLen()
		if cnt == 0 {
			return
		}
		m.Set(reflect.MakeMapWithSize(t, cnt))
		k, v := reflect.New(t.Key()), reflect.New(t.Elem())
		for i := 0; i < cnt; i++ {
			key.dec(r, k.UnsafePointer())
			elem.dec(r, v.UnsafePointer())
			m.SetMapIndex(k.Elem(), v.Elem())
		}
	}
}

func pointerPlan(n, elem *node) {
	n.enc = func(b []byte, p unsafe.Pointer) []byte {
		q := *(*unsafe.Pointer)(p)
		b = wirebin.AppendBool(b, q != nil)
		if q != nil {
			b = elem.enc(b, q)
		}
		return b
	}
	n.size = func(p unsafe.Pointer) int {
		if q := *(*unsafe.Pointer)(p); q != nil {
			return 1 + elem.size(q)
		}
		return 1
	}
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) {
		if !r.Bool() {
			*(*unsafe.Pointer)(p) = nil
			return
		}
		q := reflect.New(elem.typ).UnsafePointer()
		elem.dec(r, q)
		*(*unsafe.Pointer)(p) = q
	}
}

func interfacePlan(n *node) {
	n.enc = func(b []byte, p unsafe.Pointer) []byte {
		pt, q := dynamic(n.typ, p)
		if pt == nil {
			return wirebin.AppendUvarint(b, idNil)
		}
		return pt.enc(wirebin.AppendUvarint(b, uint64(pt.id)), q)
	}
	n.size = func(p unsafe.Pointer) int {
		pt, q := dynamic(n.typ, p)
		if pt == nil {
			return wirebin.UvarintLen(idNil)
		}
		return wirebin.UvarintLen(uint64(pt.id)) + pt.size(q)
	}
	n.dec = func(r *wirebin.Reader, p unsafe.Pointer) {
		v := reflect.NewAt(n.typ, p).Elem()
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
		e := reflect.New(pt.typ)
		pt.dec(r, e.UnsafePointer())
		v.Set(e.Elem())
	}
}

// errEncode carries an encode-time failure (an interface holding an
// unregistered type) out of the recursive walk to the exported entry
// points, which recover it.
type errEncode struct{ error }

// dynamic resolves the interface at p to its content's payload type,
// which must be registered, and the content's address; nil for a nil
// interface.
func dynamic(t reflect.Type, p unsafe.Pointer) (*payloadType, unsafe.Pointer) {
	v := reflect.NewAt(t, p).Elem()
	if v.IsNil() {
		return nil, nil
	}
	pt := reg.Load().byType[v.Elem().Type()]
	if pt == nil {
		panic(errEncode{fmt.Errorf("codec: %v inside %v is not a registered payload type", v.Elem().Type(), t)})
	}
	// Both interface layouts keep the content's data word second.
	word := unsafe.Add(p, unsafe.Sizeof(uintptr(0)))
	if pt.direct {
		return pt, word
	}
	return pt, *(*unsafe.Pointer)(word)
}

// pointerShaped reports whether an interface stores a t in its data word
// itself rather than a pointer to it: pointers, maps, channels, funcs,
// and structs or one-element arrays wrapping exactly one such value.
func pointerShaped(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		return t.NumField() == 1 && pointerShaped(t.Field(0).Type)
	case reflect.Array:
		return t.Len() == 1 && pointerShaped(t.Elem())
	}
	return false
}

// at returns the address of the value v, which holds a pt, carries.
func (pt *payloadType) at(v any) unsafe.Pointer {
	word := (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
	if pt.direct {
		// The data word is the value: give it an address (one
		// allocation, for pointer-shaped payloads only).
		cell := new(unsafe.Pointer)
		*cell = word
		return unsafe.Pointer(cell)
	}
	return word
}

// appendTo runs the plan's encoder on v, a value of pt's type, turning
// its one failure (an interface field holding an unregistered type)
// into an error.
func (pt *payloadType) appendTo(b []byte, v any) (out []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			e, ok := rec.(errEncode)
			if !ok {
				panic(rec)
			}
			err = e
		}
	}()
	return pt.enc(b, pt.at(v)), nil
}

// readers recycles decode readers: a reader handed to the plan's
// closures escapes, and would otherwise cost every decode an allocation.
var readers = sync.Pool{New: func() any { return new(wirebin.Reader) }}

// decode overwrites the value ptr points to, a pt, from exactly data. It
// never panics, whatever the bytes: malformed input, and any bug the
// plan trips on it, surface as errors, so a node survives adversarial
// datagrams.
func (pt *payloadType) decode(data []byte, ptr reflect.Value) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("codec: decode %v panic: %v", pt.typ, rec)
		}
	}()
	r := readers.Get().(*wirebin.Reader)
	*r = wirebin.NewReader(data)
	pt.dec(r, ptr.UnsafePointer())
	err = r.Close()
	*r = wirebin.Reader{}
	readers.Put(r)
	return err
}
