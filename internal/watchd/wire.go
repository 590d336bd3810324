// Hand-rolled binary wire codec (wire format v3) for the watch
// daemon's spawn spec — it travels in every WD (re)spawn and restart
// storm. Field order is part of the wire format.
package watchd

import (
	"repro/internal/codec"
	"repro/internal/types"
	"repro/internal/wirebin"
)

func init() {
	codec.RegisterPayload(80, func() codec.Payload { return new(Spec) })
}

// WireID implements codec.Payload (ID space: 80+ = watchd).
func (Spec) WireID() uint16 { return 80 }

// AppendWire implements codec.Payload.
func (s Spec) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendVarint(buf, int64(s.Partition))
	buf = wirebin.AppendVarint(buf, int64(s.GSDNode))
	buf = wirebin.AppendDuration(buf, s.Interval)
	buf = wirebin.AppendVarint(buf, int64(s.NICs))
	buf = wirebin.AppendBool(buf, s.Supervise)
	return wirebin.AppendDuration(buf, s.DetectorSample)
}

// DecodeWire implements codec.Payload.
func (s *Spec) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	s.Partition = types.PartitionID(r.Varint())
	s.GSDNode = types.NodeID(r.Varint())
	s.Interval = r.Duration()
	s.NICs = int(r.Varint())
	s.Supervise = r.Bool()
	s.DetectorSample = r.Duration()
	return r.Close()
}
