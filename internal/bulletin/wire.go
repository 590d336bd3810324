// Hand-rolled binary wire codecs (wire format v3) for every bulletin
// payload: the requests, their replies (shard.Map piggyback and
// snapshots included) and the delta batches the data plane gossips.
// Field order is part of the wire format.
package bulletin

import (
	"repro/internal/codec"
	"repro/internal/shard"
	"repro/internal/types"
	"repro/internal/wirebin"
)

func init() {
	wirebin.Intern(
		"db.put", "db.query", "db.result", "db.fetch", "db.get", "db.sync",
		"res", "app", // PutReq.Kind vocabulary
	)
	codec.RegisterPayload(48, func() codec.Payload { return new(PutReq) })
	codec.RegisterPayload(49, func() codec.Payload { return new(QueryReq) })
	codec.RegisterPayload(50, func() codec.Payload { return new(FetchReq) })
	codec.RegisterPayload(51, func() codec.Payload { return new(GetReq) })
	codec.RegisterPayload(52, func() codec.Payload { return new(SyncReq) })
	codec.RegisterPayload(53, func() codec.Payload { return new(DeltaBatch) })
	codec.RegisterPayload(54, func() codec.Payload { return new(GetAck) })
	codec.RegisterPayload(55, func() codec.Payload { return new(PutAck) })
	codec.RegisterPayload(56, func() codec.Payload { return new(SyncAck) })
	codec.RegisterPayload(57, func() codec.Payload { return new(QueryAck) })
	codec.RegisterPayload(58, func() codec.Payload { return new(FetchAck) })
}

// appendRows encodes a row slice (types.ResourceStats, types.AppState,
// Snapshot) as a count and the rows.
func appendRows[T interface{ AppendWire([]byte) []byte }](buf []byte, rows []T) []byte {
	buf = wirebin.AppendUvarint(buf, uint64(len(rows)))
	for i := range rows {
		buf = rows[i].AppendWire(buf)
	}
	return buf
}

// The row-slice decoders are spelled out per type: a ReadWire call
// through a type parameter would move the caller's Reader to the heap.
// Zero rows decode to nil, matching what gob round-trips produced before.

func readRes(r *wirebin.Reader) []types.ResourceStats {
	n := r.SliceLen()
	if n == 0 || r.Err() != nil {
		return nil
	}
	rows := make([]types.ResourceStats, n)
	for i := range rows {
		rows[i].ReadWire(r)
	}
	return rows
}

func readApps(r *wirebin.Reader) []types.AppState {
	n := r.SliceLen()
	if n == 0 || r.Err() != nil {
		return nil
	}
	rows := make([]types.AppState, n)
	for i := range rows {
		rows[i].ReadWire(r)
	}
	return rows
}

// appendMap encodes the shard-map piggyback: the serialised fields only,
// never the lazily built ring.
func appendMap(buf []byte, m shard.Map) []byte {
	buf = wirebin.AppendUvarint(buf, m.Version)
	buf = wirebin.AppendVarint(buf, int64(m.Replicas))
	buf = wirebin.AppendVarint(buf, int64(m.VNodes))
	buf = wirebin.AppendUvarint(buf, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		buf = wirebin.AppendVarint(buf, int64(e.Part))
		buf = wirebin.AppendVarint(buf, int64(e.Node))
	}
	return buf
}

// readMap overwrites m, dropping any ring built for its previous entries.
func readMap(r *wirebin.Reader, m *shard.Map) {
	*m = shard.Map{}
	m.Version = r.Uvarint()
	m.Replicas = int(r.Varint())
	m.VNodes = int(r.Varint())
	if n := r.SliceLen(); n > 0 && r.Err() == nil {
		m.Entries = make([]shard.Entry, n)
		for i := range m.Entries {
			m.Entries[i].Part = types.PartitionID(r.Varint())
			m.Entries[i].Node = types.NodeID(r.Varint())
		}
	}
}

// WireID implements codec.Payload (ID space: 48+ = bulletin).
func (PutReq) WireID() uint16 { return 48 }

// AppendWire implements codec.Payload.
func (p PutReq) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendString(buf, p.Kind)
	buf = p.Res.AppendWire(buf)
	buf = p.App.AppendWire(buf)
	buf = wirebin.AppendUvarint(buf, p.Token)
	buf = wirebin.AppendUvarint(buf, p.MapVersion)
	return wirebin.AppendBool(buf, p.Fwd)
}

// DecodeWire implements codec.Payload.
func (p *PutReq) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	p.Kind = r.String()
	p.Res.ReadWire(&r)
	p.App.ReadWire(&r)
	p.Token = r.Uvarint()
	p.MapVersion = r.Uvarint()
	p.Fwd = r.Bool()
	return r.Close()
}

// WireID implements codec.Payload.
func (QueryReq) WireID() uint16 { return 49 }

// AppendWire implements codec.Payload.
func (q QueryReq) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, q.Token)
	buf = wirebin.AppendVarint(buf, int64(q.Scope))
	return wirebin.AppendUvarint(buf, q.MapVersion)
}

// DecodeWire implements codec.Payload.
func (q *QueryReq) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	q.Token = r.Uvarint()
	q.Scope = Scope(r.Varint())
	q.MapVersion = r.Uvarint()
	return r.Close()
}

// WireID implements codec.Payload.
func (FetchReq) WireID() uint16 { return 50 }

// AppendWire implements codec.Payload.
func (f FetchReq) AppendWire(buf []byte) []byte {
	return wirebin.AppendUvarint(buf, f.Token)
}

// DecodeWire implements codec.Payload.
func (f *FetchReq) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	f.Token = r.Uvarint()
	return r.Close()
}

// WireID implements codec.Payload.
func (GetReq) WireID() uint16 { return 51 }

// AppendWire implements codec.Payload.
func (g GetReq) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, g.Token)
	buf = wirebin.AppendVarint(buf, int64(g.Node))
	return wirebin.AppendUvarint(buf, g.MapVersion)
}

// DecodeWire implements codec.Payload.
func (g *GetReq) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	g.Token = r.Uvarint()
	g.Node = types.NodeID(r.Varint())
	g.MapVersion = r.Uvarint()
	return r.Close()
}

// WireID implements codec.Payload.
func (SyncReq) WireID() uint16 { return 52 }

// AppendWire implements codec.Payload.
func (s SyncReq) AppendWire(buf []byte) []byte {
	return wirebin.AppendUvarint(buf, s.Token)
}

// DecodeWire implements codec.Payload.
func (s *SyncReq) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	s.Token = r.Uvarint()
	return r.Close()
}

// WireID implements codec.Payload.
func (DeltaBatch) WireID() uint16 { return 53 }

// AppendWire implements codec.Payload.
func (b DeltaBatch) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendVarint(buf, int64(b.Part))
	buf = wirebin.AppendUvarint(buf, b.MapVersion)
	buf = wirebin.AppendUvarint(buf, b.Seq)
	buf = appendRows(buf, b.Res)
	return appendRows(buf, b.Apps)
}

// DecodeWire implements codec.Payload.
func (b *DeltaBatch) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	b.Part = types.PartitionID(r.Varint())
	b.MapVersion = r.Uvarint()
	b.Seq = r.Uvarint()
	b.Res = readRes(&r)
	b.Apps = readApps(&r)
	return r.Close()
}

// WireID implements codec.Payload.
func (GetAck) WireID() uint16 { return 54 }

// AppendWire implements codec.Payload.
func (a GetAck) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, a.Token)
	buf = a.Res.AppendWire(buf)
	buf = appendRows(buf, a.Apps)
	buf = wirebin.AppendBool(buf, a.Found)
	buf = wirebin.AppendBool(buf, a.Primary)
	buf = wirebin.AppendBool(buf, a.Wrong)
	buf = wirebin.AppendUvarint(buf, a.MapVersion)
	buf = wirebin.AppendBool(buf, a.HasMap)
	return appendMap(buf, a.Map)
}

// DecodeWire implements codec.Payload.
func (a *GetAck) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.Token = r.Uvarint()
	a.Res.ReadWire(&r)
	a.Apps = readApps(&r)
	a.Found = r.Bool()
	a.Primary = r.Bool()
	a.Wrong = r.Bool()
	a.MapVersion = r.Uvarint()
	a.HasMap = r.Bool()
	readMap(&r, &a.Map)
	return r.Close()
}

// WireID implements codec.Payload.
func (PutAck) WireID() uint16 { return 55 }

// AppendWire implements codec.Payload.
func (a PutAck) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, a.Token)
	buf = wirebin.AppendBool(buf, a.Wrong)
	buf = wirebin.AppendUvarint(buf, a.MapVersion)
	buf = wirebin.AppendBool(buf, a.HasMap)
	return appendMap(buf, a.Map)
}

// DecodeWire implements codec.Payload.
func (a *PutAck) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.Token = r.Uvarint()
	a.Wrong = r.Bool()
	a.MapVersion = r.Uvarint()
	a.HasMap = r.Bool()
	readMap(&r, &a.Map)
	return r.Close()
}

// WireID implements codec.Payload.
func (SyncAck) WireID() uint16 { return 56 }

// AppendWire implements codec.Payload.
func (a SyncAck) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, a.Token)
	buf = wirebin.AppendVarint(buf, int64(a.Part))
	buf = wirebin.AppendUvarint(buf, a.Seq)
	buf = appendRows(buf, a.Res)
	return appendRows(buf, a.Apps)
}

// DecodeWire implements codec.Payload.
func (a *SyncAck) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.Token = r.Uvarint()
	a.Part = types.PartitionID(r.Varint())
	a.Seq = r.Uvarint()
	a.Res = readRes(&r)
	a.Apps = readApps(&r)
	return r.Close()
}

// AppendWire encodes one partition snapshot (query and fetch replies).
func (s Snapshot) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendVarint(buf, int64(s.Partition))
	buf = appendRows(buf, s.Res)
	return appendRows(buf, s.Apps)
}

// ReadWire is the sequential decode half of Snapshot.AppendWire.
func (s *Snapshot) ReadWire(r *wirebin.Reader) {
	s.Partition = types.PartitionID(r.Varint())
	s.Res = readRes(r)
	s.Apps = readApps(r)
}

// WireID implements codec.Payload.
func (QueryAck) WireID() uint16 { return 57 }

// AppendWire implements codec.Payload.
func (a QueryAck) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, a.Token)
	buf = appendRows(buf, a.Snapshots)
	buf = wirebin.AppendUvarint(buf, uint64(len(a.Missing)))
	for _, p := range a.Missing {
		buf = wirebin.AppendVarint(buf, int64(p))
	}
	buf = wirebin.AppendBool(buf, a.Stale)
	buf = wirebin.AppendUvarint(buf, a.MapVersion)
	buf = wirebin.AppendBool(buf, a.HasMap)
	return appendMap(buf, a.Map)
}

// DecodeWire implements codec.Payload.
func (a *QueryAck) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.Token = r.Uvarint()
	a.Snapshots = nil
	if n := r.SliceLen(); n > 0 && r.Err() == nil {
		a.Snapshots = make([]Snapshot, n)
		for i := range a.Snapshots {
			a.Snapshots[i].ReadWire(&r)
		}
	}
	a.Missing = nil
	if n := r.SliceLen(); n > 0 && r.Err() == nil {
		a.Missing = make([]types.PartitionID, n)
		for i := range a.Missing {
			a.Missing[i] = types.PartitionID(r.Varint())
		}
	}
	a.Stale = r.Bool()
	a.MapVersion = r.Uvarint()
	a.HasMap = r.Bool()
	readMap(&r, &a.Map)
	return r.Close()
}

// WireID implements codec.Payload.
func (FetchAck) WireID() uint16 { return 58 }

// AppendWire implements codec.Payload.
func (a FetchAck) AppendWire(buf []byte) []byte {
	buf = wirebin.AppendUvarint(buf, a.Token)
	return a.Snap.AppendWire(buf)
}

// DecodeWire implements codec.Payload.
func (a *FetchAck) DecodeWire(data []byte) error {
	r := wirebin.NewReader(data)
	a.Token = r.Uvarint()
	a.Snap.ReadWire(&r)
	return r.Close()
}
