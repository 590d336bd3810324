package wire

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"
)

// validDataFrame builds one unfragmented v2 data frame around a real gob
// body.
func validDataFrame(t testing.TB) []byte {
	msg := types.Message{
		From: types.Addr{Node: 0, Service: "cli"},
		To:   types.Addr{Node: 1, Service: "svc"},
		NIC:  1, Type: "ping",
		Payload: types.ResourceStats{Node: 0, CPUPct: 50},
	}
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	return encodeFrame(frame{
		plane: 1, flags: flagData | flagAck, src: 0,
		seq: 7, ack: 3, ackBits: 0x5, fragCount: 1, payload: body,
	})
}

func validAckFrame() []byte {
	return encodeFrame(frame{plane: 0, flags: flagAck, src: 2, ack: 41, ackBits: 0xffff})
}

func validFragFrame(t testing.TB) []byte {
	return encodeFrame(frame{
		plane: 0, flags: flagData | flagFrag, src: 1,
		seq: 10, fragIndex: 1, fragCount: 3, payload: []byte("part"),
	})
}

func TestFrameRoundTrip(t *testing.T) {
	f, err := parseFrame(validDataFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	if !f.isData() || !f.hasAck() || f.seq != 7 || f.ack != 3 || f.ackBits != 0x5 || f.src != 0 || f.plane != 1 {
		t.Fatalf("round trip mangled header: %+v", f)
	}
	msg, err := decodeBody(f.payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != "ping" || msg.To.Service != "svc" {
		t.Fatalf("round trip mangled message: %+v", msg)
	}
	if rs, ok := msg.Payload.(types.ResourceStats); !ok || rs.CPUPct != 50 {
		t.Fatalf("payload: %#v", msg.Payload)
	}

	a, err := parseFrame(validAckFrame())
	if err != nil {
		t.Fatal(err)
	}
	if a.isData() || !a.hasAck() || a.ack != 41 || a.ackBits != 0xffff || a.src != 2 {
		t.Fatalf("ack frame mangled: %+v", a)
	}

	g, err := parseFrame(validFragFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	if !g.isData() || g.fragIndex != 1 || g.fragCount != 3 || string(g.payload) != "part" {
		t.Fatalf("fragment mangled: %+v", g)
	}
}

// TestFrameRejectsV1 pins the version bump: a v1 frame (the PR 1 format —
// magic, version byte 1, plane, 4-byte length, gob body) is rejected with
// a version error, not misparsed.
func TestFrameRejectsV1(t *testing.T) {
	body := []byte("old gob body")
	v1 := make([]byte, 8+len(body))
	v1[0], v1[1], v1[2], v1[3] = 'P', 'X', 1, 0
	binary.BigEndian.PutUint32(v1[4:8], uint32(len(body)))
	copy(v1[8:], body)
	_, err := parseFrame(v1)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v1 frame: got %v, want version error", err)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	valid := validDataFrame(t)
	flip := func(off int, b byte) []byte {
		out := append([]byte{}, valid...)
		out[off] = b
		return out
	}
	bad := map[string][]byte{
		"empty":          {},
		"short":          valid[:headerSize-1],
		"bad magic":      flip(0, 'X'),
		"bad version":    flip(2, 99),
		"unknown flags":  flip(4, 0x80),
		"reserved dirty": flip(5, 1),
		"truncated":      valid[:len(valid)-3],
		"padded":         append(append([]byte{}, valid...), 0, 0, 0),
		"header only":    valid[:headerSize],
		"zero seq data": encodeFrame(frame{
			flags: flagData, seq: 0, fragCount: 1, payload: []byte("x")}),
		"empty data": encodeFrame(frame{
			flags: flagData, seq: 1, fragCount: 1}),
		"no data no ack": encodeFrame(frame{seq: 0}),
		"ack with body": append(validAckFrame(), 'x'),
		"frag index beyond count": encodeFrame(frame{
			flags: flagData | flagFrag, seq: 9, fragIndex: 3, fragCount: 3, payload: []byte("x")}),
		"frag count 1": encodeFrame(frame{
			flags: flagData | flagFrag, seq: 9, fragIndex: 0, fragCount: 1, payload: []byte("x")}),
		"frag count over limit": encodeFrame(frame{
			flags: flagData | flagFrag, seq: 60000, fragIndex: 0, fragCount: 50000, payload: []byte("x")}),
		"frag index beyond seq": encodeFrame(frame{
			flags: flagData | flagFrag, seq: 2, fragIndex: 2, fragCount: 4, payload: []byte("x")}),
		"unfragmented with frag fields": encodeFrame(frame{
			flags: flagData, seq: 5, fragIndex: 1, fragCount: 2, payload: []byte("x")}),
	}
	for name, data := range bad {
		if _, err := parseFrame(data); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
	// "ack with body" length header no longer matches; also try a
	// consistent-length ack frame that smuggles a payload.
	smuggle := encodeFrame(frame{flags: flagAck, ack: 1, payload: []byte("x")})
	if _, err := parseFrame(smuggle); err == nil {
		t.Error("ack-only frame with payload accepted")
	}
}

// FuzzDecode asserts the hard invariant of a live node: no datagram,
// however malformed or adversarial, may panic the transport. parseFrame
// either returns a frame or an error, and a parsed single-fragment data
// payload must survive gob decoding without panicking.
func FuzzDecode(f *testing.F) {
	f.Add(validDataFrame(f))
	f.Add(validAckFrame())
	f.Add(validFragFrame(f))
	f.Add([]byte{})
	f.Add([]byte{'P', 'X'})
	f.Add([]byte{'P', 'X', 2, 0, 0, 0, 0, 0})
	tampered := validDataFrame(f)
	tampered[len(tampered)/2] ^= 0xff
	f.Add(tampered)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := parseFrame(data)
		if err != nil {
			return
		}
		if fr.isData() && fr.flags&flagFrag == 0 {
			_, _ = decodeBody(fr.payload) // must not panic
		}
	})
}

// FuzzParseBook asserts the address-book parser never panics and that any
// accepted book re-renders to a form it accepts again.
func FuzzParseBook(f *testing.F) {
	f.Add("node 0 plane 0 127.0.0.1:9000\n")
	f.Add("# comment\nnode 0 plane 0 127.0.0.1:1\nnode 0 plane 1 127.0.0.1:2\n")
	f.Add("node x plane 0 nowhere\n")
	f.Add("node 0 plane 0 127.0.0.1:9000\nnode 0 plane 0 127.0.0.1:9001\n")
	f.Fuzz(func(t *testing.T, text string) {
		b, err := ParseBook(strings.NewReader(text))
		if err != nil {
			return
		}
		if _, err := ParseBook(strings.NewReader(b.String())); err != nil {
			t.Fatalf("accepted book failed to re-parse: %v\n%s", err, b.String())
		}
	})
}

// TestMultiFrameDatagram pins the v3 datagram contract: parseFrameAt
// walks concatenated frames, parseFrame stays strictly single-frame, and
// one malformed frame poisons the whole datagram.
func TestMultiFrameDatagram(t *testing.T) {
	f1 := frame{plane: 0, flags: flagData, src: 1, seq: 5, fragCount: 1, payload: []byte("first")}
	f2 := frame{plane: 0, flags: flagAck, src: 1, ack: 9, ackBits: 0x3}
	dgram := appendFrame(encodeFrame(f1), f2)

	g1, next, err := parseFrameAt(dgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(g1.payload) != "first" || g1.seq != 5 {
		t.Fatalf("first frame mangled: %+v", g1)
	}
	g2, next2, err := parseFrameAt(dgram, next)
	if err != nil {
		t.Fatal(err)
	}
	if next2 != len(dgram) || !g2.hasAck() || g2.ack != 9 {
		t.Fatalf("second frame mangled: %+v (next %d of %d)", g2, next2, len(dgram))
	}

	if _, err := parseFrame(dgram); err == nil {
		t.Fatal("parseFrame accepted a multi-frame datagram")
	}
	// Truncating the second frame's header must fail the walk.
	if _, _, err := parseFrameAt(dgram[:next+3], next); err == nil {
		t.Fatal("truncated second frame accepted")
	}
}
