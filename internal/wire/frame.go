package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// Datagram framing, version 3. Version 1 framed exactly one fire-and-forget
// kernel message per datagram; version 2 added the fields the reliability
// layer needs — sequence numbers, piggybacked acks, and fragmentation.
// Version 3 keeps the 32-byte header bit-for-bit but changes the datagram
// contract: a datagram may carry several frames back to back, the length
// field of each delimiting the next. The receiver accepts such datagrams;
// the sender puts exactly one frame in each (batch.go). The frame body
// format also moved from gob to the codec's binary envelope
// (codec.AppendMessage), so the version bump is load-bearing twice over:
// old v2 frames are rejected cleanly before their bodies are misread.
//
//	offset  size  field
//	0       2     magic "PX"
//	2       1     format version (currently 3)
//	3       1     plane index the sender transmitted on
//	4       1     flags (data / ack / frag, see below)
//	5       3     reserved, must be zero
//	8       4     source node ID, big endian
//	12      4     sequence number (flagData; 0 otherwise)
//	16      4     ack: highest peer sequence seen (flagAck)
//	20      4     ackBits: bit i set = seq ack-1-i also seen (flagAck)
//	24      2     fragment index (flagFrag; 0 otherwise)
//	26      2     fragment count (flagFrag; 1 for unfragmented data)
//	28      4     payload length, big endian
//	32      n     payload: one codec body (codec.AppendMessage) or one
//	              fragment of it; the next frame, if any, starts at 32+n
//
// The source node is in the header — not inferred from the UDP source
// address — because acks must be routed through the address book and
// ack-only frames carry no decodable body to name their sender.
//
// A datagram is parsed as a whole before any of its frames is acted on:
// one malformed frame poisons the entire datagram (counted as a decode
// error), so trailing garbage cannot ride in behind a valid frame.
const (
	frameMagic0  = 'P'
	frameMagic1  = 'X'
	frameVersion = 3
	headerSize   = 32

	// flagData marks a frame that carries (a fragment of) a kernel message
	// and occupies a sequence number; the receiver acks it and suppresses
	// duplicates. flagAck marks the ack/ackBits fields as valid — set on
	// standalone ack frames and piggybacked on return data traffic.
	// flagFrag marks the fragment fields as valid; fragments of one message
	// occupy consecutive sequence numbers, so seq-fragIndex identifies the
	// group. flagPing and flagPong are standalone lane probes (see
	// health.go): a ping asks "does this (peer, plane) lane deliver?", the
	// pong answering it is the proof that marks a down lane up again.
	flagData = 0x01
	flagAck  = 0x02
	flagFrag = 0x04
	flagPing = 0x08
	flagPong = 0x10

	// maxFrameSize bounds a datagram: the largest UDP payload that reliably
	// survives loopback and well-configured LANs. The transport's MTU
	// option may only shrink below this; larger kernel messages fragment.
	maxFrameSize = 60 * 1024

	// maxFragments bounds one message's fragment count (and with it the
	// memory a reassembly buffer can pin): 4096 × ~60 KiB ≈ 240 MiB worst
	// case, far above any kernel payload.
	maxFragments = 4096
)

// frame is the parsed form of one datagram.
type frame struct {
	plane     int
	flags     byte
	src       types.NodeID
	seq       uint32
	ack       uint32
	ackBits   uint32
	fragIndex uint16
	fragCount uint16
	payload   []byte
}

func (f *frame) isData() bool { return f.flags&flagData != 0 }
func (f *frame) hasAck() bool { return f.flags&flagAck != 0 }

// appendFrame serialises a frame onto dst — into a pooled buffer, or a
// fresh allocation via encodeFrame. The payload is copied, so the
// assembled bytes never alias caller state.
func appendFrame(dst []byte, f frame) []byte {
	var hdr [headerSize]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = frameMagic0, frameMagic1, frameVersion, byte(f.plane)
	hdr[4] = f.flags
	binary.BigEndian.PutUint32(hdr[8:12], uint32(f.src))
	binary.BigEndian.PutUint32(hdr[12:16], f.seq)
	binary.BigEndian.PutUint32(hdr[16:20], f.ack)
	binary.BigEndian.PutUint32(hdr[20:24], f.ackBits)
	binary.BigEndian.PutUint16(hdr[24:26], f.fragIndex)
	binary.BigEndian.PutUint16(hdr[26:28], f.fragCount)
	binary.BigEndian.PutUint32(hdr[28:32], uint32(len(f.payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.payload...)
}

// encodeFrame serialises a frame into a fresh buffer — the cold paths
// (probes, tests) that don't go through the pooled assembly.
func encodeFrame(f frame) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(f.payload)), f)
}

// parseFrame validates one single-frame datagram: exactly one frame, no
// trailing bytes. The returned frame's payload aliases data.
func parseFrame(data []byte) (frame, error) {
	f, next, err := parseFrameAt(data, 0)
	if err != nil {
		return frame{}, err
	}
	if next != len(data) {
		return frame{}, fmt.Errorf("wire: %d trailing bytes after frame", len(data)-next)
	}
	return f, nil
}

// parseFrameAt validates the frame starting at data[off:] and returns it
// with the offset of the next frame — the iterator the read loop walks a
// multi-frame datagram with. It never panics, whatever the input: a live
// node must survive any byte sequence thrown at its sockets. The returned
// frame's payload aliases data.
func parseFrameAt(data []byte, off int) (frame, int, error) {
	data = data[off:]
	// Magic and version come before the length check: a v1 frame is shorter
	// than a v3 header, and it must be rejected as the wrong version, not as
	// a truncated v3 frame.
	if len(data) < 3 {
		return frame{}, 0, fmt.Errorf("wire: short datagram (%d bytes)", len(data))
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return frame{}, 0, fmt.Errorf("wire: bad magic %#x%#x", data[0], data[1])
	}
	if data[2] != frameVersion {
		return frame{}, 0, fmt.Errorf("wire: unsupported frame version %d (want %d)", data[2], frameVersion)
	}
	if len(data) < headerSize {
		return frame{}, 0, fmt.Errorf("wire: short datagram (%d bytes)", len(data))
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return frame{}, 0, fmt.Errorf("wire: nonzero reserved bytes")
	}
	n := binary.BigEndian.Uint32(data[28:32])
	if uint64(n) > uint64(len(data)-headerSize) {
		return frame{}, 0, fmt.Errorf("wire: length header %d, %d bytes remain", n, len(data)-headerSize)
	}
	f := frame{
		plane:     int(data[3]),
		flags:     data[4],
		src:       types.NodeID(binary.BigEndian.Uint32(data[8:12])),
		seq:       binary.BigEndian.Uint32(data[12:16]),
		ack:       binary.BigEndian.Uint32(data[16:20]),
		ackBits:   binary.BigEndian.Uint32(data[20:24]),
		fragIndex: binary.BigEndian.Uint16(data[24:26]),
		fragCount: binary.BigEndian.Uint16(data[26:28]),
		payload:   data[headerSize : headerSize+int(n)],
	}
	if f.flags&^(flagData|flagAck|flagFrag|flagPing|flagPong) != 0 {
		return frame{}, 0, fmt.Errorf("wire: unknown flags %#x", f.flags)
	}
	switch {
	case f.flags&(flagPing|flagPong) != 0:
		// Probes are strictly standalone: nothing piggybacks on them.
		if (f.flags != flagPing && f.flags != flagPong) || len(f.payload) != 0 ||
			f.seq != 0 || f.ack != 0 || f.ackBits != 0 || f.fragIndex != 0 || f.fragCount != 0 {
			return frame{}, 0, fmt.Errorf("wire: malformed probe frame")
		}
	case f.isData():
		if f.seq == 0 {
			return frame{}, 0, fmt.Errorf("wire: data frame with zero sequence")
		}
		if len(f.payload) == 0 {
			return frame{}, 0, fmt.Errorf("wire: data frame with empty payload")
		}
		if f.flags&flagFrag != 0 {
			if f.fragCount < 2 || f.fragCount > maxFragments || f.fragIndex >= f.fragCount {
				return frame{}, 0, fmt.Errorf("wire: bad fragment %d/%d", f.fragIndex, f.fragCount)
			}
			if uint32(f.fragIndex) > f.seq-1 {
				return frame{}, 0, fmt.Errorf("wire: fragment index %d exceeds sequence %d", f.fragIndex, f.seq)
			}
		} else if f.fragIndex != 0 || f.fragCount != 1 {
			return frame{}, 0, fmt.Errorf("wire: unfragmented frame with fragment fields %d/%d", f.fragIndex, f.fragCount)
		}
	case f.hasAck():
		if len(f.payload) != 0 || f.seq != 0 || f.fragIndex != 0 || f.fragCount != 0 {
			return frame{}, 0, fmt.Errorf("wire: malformed ack-only frame")
		}
	default:
		return frame{}, 0, fmt.Errorf("wire: frame carries neither data nor ack")
	}
	return f, off + headerSize + len(f.payload), nil
}
