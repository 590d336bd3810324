// Package wirebin is the low-level binary encoding vocabulary of the
// Phoenix wire format v3: append-style writers, their exact lengths, and
// a cursor-style reader for the primitive field kinds kernel payloads
// are made of. internal/codec writes the message envelope with it, and
// every payload through the plan it compiles per registered type; it is
// a leaf package, so payload owners can intern their vocabulary here
// without import cycles.
//
// Design rules, chosen so the steady-state encode/decode path allocates
// nothing:
//
//   - Writers are append-style: they extend a caller-owned []byte and
//     return it, so a pooled buffer absorbs every byte written.
//   - The Reader is a by-value cursor over a caller-owned []byte. It
//     never allocates except in String (and there only when the bytes
//     are not in the intern table) and in slice growth the caller asked
//     for.
//   - Integers travel as varints (unsigned) or zigzag varints (signed);
//     floats as fixed 8-byte IEEE bits; times as a presence flag plus
//     seconds/nanoseconds, so the zero time.Time round-trips exactly.
//   - Malformed input surfaces as a sticky Reader error, never a panic:
//     a live node must survive any byte sequence thrown at its sockets.
package wirebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTruncated marks input that ended before the field it promised.
var ErrTruncated = errors.New("wirebin: truncated input")

// ErrMalformed marks input that is structurally invalid (overlong varint,
// length prefix exceeding the remaining bytes, ...).
var ErrMalformed = errors.New("wirebin: malformed input")

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v zigzag-encoded, so small negatives stay small.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the fixed 8-byte big-endian IEEE 754 bits.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length prefix and the slice bytes.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendTime appends t as a presence flag plus Unix seconds and
// nanoseconds. The zero time is encoded as the flag alone and decodes
// back to exactly time.Time{}; non-zero times round-trip to the same
// instant (monotonic readings and locations are dropped).
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// UvarintLen is the length of AppendUvarint's encoding of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen is the length of AppendVarint's encoding of v.
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// TimeLen is the length of AppendTime's encoding of t.
func TimeLen(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + VarintLen(t.Unix()) + UvarintLen(uint64(t.Nanosecond()))
}

// Reader is a cursor over one encoded buffer. Errors are sticky: after
// the first malformed or truncated field every further read returns the
// zero value, and Err reports what went wrong. Use it by value or by
// pointer; all methods are on the pointer.
type Reader struct {
	data []byte
	err  error
}

// NewReader wraps data. The Reader aliases data; it never writes to it.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err reports the first decoding error, nil if none so far.
func (r *Reader) Err() error { return r.err }

// Len reports how many bytes remain unread.
func (r *Reader) Len() int { return len(r.data) }

// Rest returns the remaining unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.data }

// Close verifies the input was fully consumed, turning trailing garbage
// into an error — every payload decode ends with it.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.data))
	}
	return r.err
}

// Fail records err as the Reader's error unless one is already set, for
// callers that find input invalid at a level above the primitives.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads one unsigned LEB128 integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	switch {
	case n > 0:
		r.data = r.data[n:]
		return v
	case n == 0:
		r.Fail(ErrTruncated)
	default:
		r.Fail(fmt.Errorf("%w: overlong varint", ErrMalformed))
	}
	return 0
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte as a bool; any value other than 0 or 1 is an error
// (canonical form keeps the differential tests honest).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.Fail(ErrTruncated)
		return false
	}
	v := r.data[0]
	r.data = r.data[1:]
	if v > 1 {
		r.Fail(fmt.Errorf("%w: bool byte %#x", ErrMalformed, v))
		return false
	}
	return v == 1
}

// Float64 reads the fixed 8-byte IEEE bits.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// take consumes a length-prefixed field and returns its bytes (aliasing
// the input).
func (r *Reader) take() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.Fail(fmt.Errorf("%w: length %d exceeds %d remaining", ErrMalformed, n, len(r.data)))
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

// String reads a length-prefixed string. Known strings (service names,
// message type tags, other values fed to Intern) are returned from the
// intern table without allocating; unknown ones allocate.
func (r *Reader) String() string {
	b := r.take()
	if len(b) == 0 {
		return ""
	}
	if m := internTable.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok { // compiler elides the conversion
			return s
		}
	}
	return string(b)
}

// Bytes reads a length-prefixed byte field into a fresh slice, so the
// result never aliases the input; a zero-length field reads as nil.
func (r *Reader) Bytes() []byte {
	b := r.take()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Time reads a presence flag plus Unix seconds/nanoseconds. The zero
// flag yields exactly time.Time{}.
func (r *Reader) Time() time.Time {
	if r.err != nil {
		return time.Time{}
	}
	if len(r.data) < 1 {
		r.Fail(ErrTruncated)
		return time.Time{}
	}
	flag := r.data[0]
	r.data = r.data[1:]
	switch flag {
	case 0:
		return time.Time{}
	case 1:
		sec := r.Varint()
		nsec := r.Uvarint()
		if r.err != nil {
			return time.Time{}
		}
		if nsec > 999_999_999 {
			r.Fail(fmt.Errorf("%w: %d nanoseconds", ErrMalformed, nsec))
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec))
	default:
		r.Fail(fmt.Errorf("%w: time flag %#x", ErrMalformed, flag))
		return time.Time{}
	}
}

// SliceLen reads a uvarint element count and bounds it against the bytes
// remaining (at least one byte per element), so adversarial length
// prefixes cannot force huge allocations.
func (r *Reader) SliceLen() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)) {
		r.Fail(fmt.Errorf("%w: %d elements in %d bytes", ErrMalformed, n, len(r.data)))
		return 0
	}
	return int(n)
}

// internTable maps known wire strings to their canonical Go string, so
// decoding them allocates nothing. It is copy-on-write: Intern is called
// from init functions (and tests), reads are lock-free loads.
var (
	internMu    sync.Mutex
	internTable atomic.Pointer[map[string]string]
)

// Intern adds strings to the decode-side intern table. Payload owners
// call it from init with their message type tags and field vocabulary;
// interning never changes semantics, only removes the per-decode
// allocation for strings known ahead of time.
func Intern(ss ...string) {
	internMu.Lock()
	defer internMu.Unlock()
	old := internTable.Load()
	next := make(map[string]string, len(ss))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	for _, s := range ss {
		next[s] = s
	}
	internTable.Store(&next)
}
