// Hand-rolled binary wire codecs (wire format v3) for the leaf payload
// types. These implement codec.Payload — WireID / AppendWire on the
// value, DecodeWire on the pointer — without importing internal/codec
// (which imports this package); internal/codec registers them under
// their IDs in its registerBuiltins. Field order is the struct order and
// is part of the wire format: changing it is a format change.
package types

import (
	"repro/internal/wirebin"
)

func init() {
	// Event type tags are a closed vocabulary: intern them so decoding
	// an event allocates nothing for the tag.
	wirebin.Intern(
		string(EvNodeSuspect), string(EvNetSuspect), string(EvServiceSuspect),
		string(EvMemberSuspect), string(EvNodeFail), string(EvNodeRecover),
		string(EvNetFail), string(EvNetRecover), string(EvProcFail),
		string(EvProcRecover), string(EvServiceFail), string(EvServiceRecover),
		string(EvMemberFail), string(EvMemberRecover), string(EvJobStart),
		string(EvJobFinish), string(EvJobFail), string(EvConfigChange),
	)
}

// WireID implements codec.Payload (ID space: 16+ = types).
func (Event) WireID() uint16 { return 16 }

// AppendWire implements codec.Payload.
func (e Event) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendString(buf, string(e.Type))
	buf = wirebin.AppendVarint(buf, int64(e.Node))
	buf = wirebin.AppendVarint(buf, int64(e.Partition))
	buf = wirebin.AppendString(buf, e.Service)
	buf = wirebin.AppendVarint(buf, int64(e.NIC))
	buf = wirebin.AppendString(buf, e.Detail)
	buf = wirebin.AppendBytes(buf, e.Data)
	buf = wirebin.AppendTime(buf, e.When)
	return wirebin.AppendUvarint(buf, e.Seq)
}

// DecodeWire implements codec.Payload, reusing Data's capacity.
func (e *Event) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	e.ReadWire(&r)
	return r.Close()
}

// ReadWire is the sequential decode half of the codec, exposed so
// payloads embedding an Event (event fanout, delta batches) compose it.
func (e *Event) ReadWire(r *wirebin.Reader) {
	e.Type = EventType(r.String())
	e.Node = NodeID(r.Varint())
	e.Partition = PartitionID(r.Varint())
	e.Service = r.String()
	e.NIC = int(r.Varint())
	e.Detail = r.String()
	e.Data = r.Bytes(e.Data)
	e.When = r.Time()
	e.Seq = r.Uvarint()
}

// WireID implements codec.Payload.
func (ResourceStats) WireID() uint16 { return 17 }

// AppendWire implements codec.Payload.
func (s ResourceStats) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendVarint(buf, int64(s.Node))
	buf = wirebin.AppendFloat64(buf, s.CPUPct)
	buf = wirebin.AppendFloat64(buf, s.MemPct)
	buf = wirebin.AppendFloat64(buf, s.SwapPct)
	buf = wirebin.AppendFloat64(buf, s.DiskIOBps)
	buf = wirebin.AppendFloat64(buf, s.NetIOBps)
	buf = wirebin.AppendTime(buf, s.Collected)
	return wirebin.AppendVarint(buf, int64(s.RunQ))
}

// DecodeWire implements codec.Payload.
func (s *ResourceStats) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	s.ReadWire(&r)
	return r.Close()
}

// ReadWire is the sequential decode half, for embedding payloads
// (bulletin rows, delta batches).
func (s *ResourceStats) ReadWire(r *wirebin.Reader) {
	s.Node = NodeID(r.Varint())
	s.CPUPct = r.Float64()
	s.MemPct = r.Float64()
	s.SwapPct = r.Float64()
	s.DiskIOBps = r.Float64()
	s.NetIOBps = r.Float64()
	s.Collected = r.Time()
	s.RunQ = int(r.Varint())
}

// WireID implements codec.Payload.
func (AppState) WireID() uint16 { return 18 }

// AppendWire implements codec.Payload.
func (a AppState) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendVarint(buf, int64(a.Node))
	buf = wirebin.AppendVarint(buf, int64(a.Proc))
	buf = wirebin.AppendString(buf, a.Name)
	buf = wirebin.AppendBool(buf, a.Alive)
	buf = wirebin.AppendFloat64(buf, a.CPUPct)
	buf = wirebin.AppendFloat64(buf, a.MemPct)
	buf = wirebin.AppendString(buf, a.SLATag)
	return wirebin.AppendTime(buf, a.Updated)
}

// DecodeWire implements codec.Payload.
func (a *AppState) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.ReadWire(&r)
	return r.Close()
}

// ReadWire is the sequential decode half, for embedding payloads
// (bulletin rows, delta batches).
func (a *AppState) ReadWire(r *wirebin.Reader) {
	a.Node = NodeID(r.Varint())
	a.Proc = ProcID(r.Varint())
	a.Name = r.String()
	a.Alive = r.Bool()
	a.CPUPct = r.Float64()
	a.MemPct = r.Float64()
	a.SLATag = r.String()
	a.Updated = r.Time()
}
