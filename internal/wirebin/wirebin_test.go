package wirebin

import (
	"math"
	"testing"
	"time"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat64(b, 1.5)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendString(b, "")
	b = AppendString(b, "hello")
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint 0 = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint max = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Fatalf("varint -1 = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("varint min = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools mangled")
	}
	if got := r.Float64(); got != 1.5 {
		t.Fatalf("float 1.5 = %v", got)
	}
	if got := r.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("float -inf = %v", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string = %q", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("bytes = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestLensMatchEncodings pins the length functions Size relies on to
// the writers they measure, across every varint width and both time forms.
func TestLensMatchEncodings(t *testing.T) {
	for _, u := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, math.MaxUint64} {
		if got, want := UvarintLen(u), len(AppendUvarint(nil, u)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", u, got, want)
		}
	}
	for _, v := range []int64{0, -1, 1, -64, 64, -65, math.MaxInt64, math.MinInt64} {
		if got, want := VarintLen(v), len(AppendVarint(nil, v)); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	for _, tm := range []time.Time{{}, time.Unix(0, 0), time.Unix(-1, 999_999_999), time.Unix(1125532800, 5)} {
		if got, want := TimeLen(tm), len(AppendTime(nil, tm)); got != want {
			t.Errorf("TimeLen(%v) = %d, want %d", tm, got, want)
		}
	}
}

func TestTimeRoundTrip(t *testing.T) {
	cases := []time.Time{
		{},
		time.Date(2005, 9, 1, 0, 0, 30, 123456789, time.UTC),
		time.Unix(-1, 999_999_999),
	}
	for _, in := range cases {
		r := NewReader(AppendTime(nil, in))
		got := r.Time()
		if err := r.Close(); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if in.IsZero() {
			if !got.IsZero() {
				t.Fatalf("zero time decoded as %v", got)
			}
			continue
		}
		if !got.Equal(in) {
			t.Fatalf("time %v decoded as %v", in, got)
		}
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated varint
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Fatal("truncated varint not detected")
	}
	// Every further read stays zero-valued and does not clear the error.
	if r.Uvarint() != 0 || r.String() != "" || r.Bool() || r.Err() == nil {
		t.Fatal("error is not sticky")
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	cases := map[string]func(r *Reader){
		"length beyond input": func(r *Reader) { _ = r.String() },
		"slice len oversized": func(r *Reader) { r.SliceLen() },
	}
	for name, read := range cases {
		r := NewReader(AppendUvarint(nil, 1000))
		read(&r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Error("bool byte 7 accepted")
	}

	r = NewReader([]byte{1, 0x02, 0xff, 0xff, 0xff, 0xff, 0x07}) // nsec > 1e9... encoded big
	r.Time()
	if r.Err() == nil {
		t.Error("out-of-range nanoseconds accepted")
	}

	r = NewReader(append(AppendBool(nil, true), 0xaa))
	r.Bool()
	if err := r.Close(); err == nil {
		t.Error("trailing bytes accepted by Close")
	}
}

func TestInternAvoidsAllocation(t *testing.T) {
	Intern("wd.hb")
	data := AppendString(nil, "wd.hb")
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(data)
		if r.String() != "wd.hb" {
			t.Fatal("intern miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned string decode allocates %v/op", allocs)
	}
}
