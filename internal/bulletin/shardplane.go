package bulletin

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"repro/internal/gossip"
	"repro/internal/shard"
	"repro/internal/types"
)

// The sharded data plane splits the bulletin's key space (one key per
// cluster node, shard.NodeKey) across the federation with a consistent-hash
// ring derived from the federation view. The key's primary applies writes
// and propagates them to replicas as delta batches handed to the
// co-located gossip instance; any copy holder answers keyed reads. The
// legacy home store (each partition's own detector samples,
// scatter-gathered by cluster queries) is untouched underneath.

// Message types of the sharded plane.
const (
	MsgPutAck  = "db.put.ack"
	MsgGet     = "db.get"
	MsgGetAck  = "db.get.ack"
	MsgSync    = "db.sync"
	MsgSyncAck = "db.sync.ack"
)

// ErrWrongShard is the typed refusal a bulletin instance gives a keyed
// request for a range it does not own under its current shard map — the
// stale-read guard on shard handoff. Clients never surface it: the ack
// carries the newer map, the client adopts it and the rpc layer re-resolves
// and retries (rpc.Caller.Reject).
var ErrWrongShard = errors.New("bulletin: wrong shard for key")

// PutAck answers an acked (Token != 0) write.
type PutAck struct {
	Token      uint64
	Wrong      bool // refused: not the key's primary under MapVersion
	MapVersion uint64
	HasMap     bool
	Map        shard.Map
}

// GetReq reads one node's rows from the shard plane.
type GetReq struct {
	Token      uint64
	Node       types.NodeID
	MapVersion uint64 // requester's shard-map version
}

// WireSize implements codec.Sizer: keyed reads are the data plane's hot path.
func (GetReq) WireSize() int { return 24 }

// GetAck answers a keyed read.
type GetAck struct {
	Token      uint64
	Res        types.ResourceStats
	Apps       []types.AppState
	Found      bool
	Primary    bool // answered by the key's primary (authoritative not-found)
	Wrong      bool // refused: instance holds no copy under MapVersion
	MapVersion uint64
	HasMap     bool
	Map        shard.Map
}

// SyncReq asks a peer for its full shard store (anti-entropy after a map
// change or a detected delta gap).
type SyncReq struct{ Token uint64 }

// WireSize implements codec.Sizer.
func (SyncReq) WireSize() int { return 8 }

// SyncAck carries the peer's shard rows and its delta sequence.
type SyncAck struct {
	Token uint64
	Part  types.PartitionID
	Seq   uint64
	Res   []types.ResourceStats
	Apps  []types.AppState
}

// DeltaBatch is the payload of one gossiped delta (gossip.SubmitMsg out,
// gossip.DeliverMsg in): the writes a primary buffered since its last
// flush, coalesced per key.
type DeltaBatch struct {
	Part       types.PartitionID
	MapVersion uint64
	Seq        uint64 // per-source sequence; gaps trigger a sync
	Res        []types.ResourceStats
	Apps       []types.AppState
}

// ShardStats is the data-plane section of an instance's observability
// snapshot: ownership, traffic, delta propagation and the query cache.
type ShardStats struct {
	MapVersion  uint64 `json:"map_version"`
	Partitions  int    `json:"partitions"`
	Replicas    int    `json:"replicas"`
	PrimaryRows int    `json:"primary_rows"`
	ReplicaRows int    `json:"replica_rows"`

	GetsServed    uint64 `json:"gets_served"`
	PutsServed    uint64 `json:"puts_served"`
	QueriesServed uint64 `json:"queries_served"`
	WrongShard    uint64 `json:"wrong_shard"`
	Forwarded     uint64 `json:"forwarded"`

	DeltaBatchesOut uint64 `json:"delta_batches_out"`
	DeltaRowsOut    uint64 `json:"delta_rows_out"`
	DeltasIn        uint64 `json:"deltas_in"`
	DeltaDups       uint64 `json:"delta_dups"`
	DeltaGaps       uint64 `json:"delta_gaps"`
	Syncs           uint64 `json:"syncs"`
	PendingRows     int    `json:"pending_rows"`
	PendingAgeMs    int64  `json:"pending_age_ms"` // replication lag: oldest unflushed write
	MapChanges      uint64 `json:"map_changes"`

	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
}

// CacheHitRatio is hits/(hits+misses) of the cluster-query cache.
func (s ShardStats) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats snapshots the data-plane counters. Loop-confined like everything
// else on the instance.
func (s *Service) Stats() ShardStats {
	st := s.sstats
	st.MapVersion = s.smap.Version
	st.Partitions = len(s.smap.Entries)
	st.Replicas = s.smap.Replicas
	for n := range s.sres {
		switch s.smap.RoleOf(s.part, shard.NodeKey(n)) {
		case shard.RolePrimary:
			st.PrimaryRows++
		case shard.RoleReplica:
			st.ReplicaRows++
		}
	}
	for _, a := range s.sapps {
		switch s.smap.RoleOf(s.part, shard.NodeKey(a.Node)) {
		case shard.RolePrimary:
			st.PrimaryRows++
		case shard.RoleReplica:
			st.ReplicaRows++
		}
	}
	st.PendingRows = len(s.deltaRes) + len(s.deltaApps)
	if st.PendingRows > 0 && !s.pendingSince.IsZero() {
		st.PendingAgeMs = s.rt.Now().Sub(s.pendingSince).Milliseconds()
	}
	return st
}

// DeltaSeq reports the last delta sequence this instance authored as a
// primary (experiment instrumentation).
func (s *Service) DeltaSeq() uint64 { return s.deltaSeq }

// AppliedSeq reports the last delta sequence applied from the given
// source partition (experiment instrumentation).
func (s *Service) AppliedSeq(src types.PartitionID) uint64 { return s.applied[src] }

// rebuildMap re-derives the shard map after a view change: drop rows this
// partition no longer holds, push home rows back through the plane (a
// promoted primary starts receiving its new ranges), pull a sync from every
// peer, and invalidate the query cache.
func (s *Service) rebuildMap() {
	nm := shard.FromView(s.view, s.cfg.Replicas, s.cfg.VNodes)
	if nm.Version == s.smap.Version && len(nm.Entries) == len(s.smap.Entries) {
		return
	}
	// A partition whose hosting node changed is a new delta source: the
	// replacement primary restarts its flush stream at sequence 1, so the
	// old host's applied sequence would shadow every fresh batch as a
	// duplicate. Forget it; the requestSync pulls below re-seed the rows.
	for src := range s.applied {
		on, ook := s.smap.Node(src)
		nn, nok := nm.Node(src)
		if !nok || (ook && on != nn) {
			delete(s.applied, src)
		}
	}
	s.smap = nm
	s.sstats.MapChanges++
	for n := range s.sres {
		if !s.smap.OwnedBy(s.part, shard.NodeKey(n)) {
			delete(s.sres, n)
		}
	}
	for key, a := range s.sapps {
		if !s.smap.OwnedBy(s.part, shard.NodeKey(a.Node)) {
			delete(s.sapps, key)
		}
	}
	if len(s.qcache) > 0 {
		s.qcache = make(map[types.PartitionID]cachedSnap)
		s.cacheIndex = make(map[types.NodeID]types.PartitionID)
		s.sstats.CacheInvalidations++
	}
	// Re-home this partition's own detector samples under the new map, in
	// key order: shardWrite forwards to other primaries, and send order
	// must not depend on map iteration (simulator repeatability per seed).
	for _, n := range sortedKeys(s.res) {
		s.shardWrite(PutReq{Kind: "res", Res: s.res[n]})
	}
	for _, key := range sortedKeys(s.apps) {
		s.shardWrite(PutReq{Kind: "app", App: s.apps[key]})
	}
	for _, e := range s.smap.Entries {
		if e.Part != s.part {
			s.requestSync(types.Addr{Node: e.Node, Service: types.SvcDB})
		}
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// shardWrite routes one unacked write (a detector export, or a re-homed
// row) into the plane from this instance's point of view.
func (s *Service) shardWrite(req PutReq) {
	if s.smap.Empty() {
		return
	}
	key := shard.NodeKey(putNode(req))
	switch s.smap.RoleOf(s.part, key) {
	case shard.RolePrimary:
		if s.applyShardRow(req) {
			s.bufferDelta(req)
		}
	case shard.RoleReplica:
		// Hold the copy, but the primary still authors the delta.
		s.applyShardRow(req)
		s.forwardToPrimary(key, req)
	default:
		s.forwardToPrimary(key, req)
	}
}

// putNode is the cluster node a write's row describes — the shard key.
func putNode(req PutReq) types.NodeID {
	if req.Kind == "app" {
		return req.App.Node
	}
	return req.Res.Node
}

func (s *Service) forwardToPrimary(key string, req PutReq) {
	part, ok := s.smap.Primary(key)
	if !ok || part == s.part {
		return
	}
	node, ok := s.smap.Node(part)
	if !ok {
		return
	}
	req.Fwd = true
	req.Token = 0
	s.sstats.Forwarded++
	s.rt.Send(types.Addr{Node: node, Service: types.SvcDB}, types.AnyNIC, MsgPut, req)
}

// applyForwarded lands a write forwarded by a peer: apply if we hold the
// key, author the delta if we are its primary. Never re-forwarded (a map
// disagreement is resolved by the next view push + sync, not by bouncing).
func (s *Service) applyForwarded(req PutReq) {
	key := shard.NodeKey(putNode(req))
	switch s.smap.RoleOf(s.part, key) {
	case shard.RolePrimary:
		if s.applyShardRow(req) {
			s.bufferDelta(req)
		}
	case shard.RoleReplica:
		s.applyShardRow(req)
	}
}

// putAcked serves a client's acked write: only the key's primary under a
// current map accepts; anyone else refuses with the newer map piggybacked,
// and the client's rpc layer re-resolves (never a user-visible failure).
func (s *Service) putAcked(from types.Addr, req PutReq) {
	key := shard.NodeKey(putNode(req))
	if req.MapVersion > s.smap.Version || s.smap.RoleOf(s.part, key) != shard.RolePrimary {
		s.sstats.WrongShard++
		s.rt.Send(from, types.AnyNIC, MsgPutAck, PutAck{
			Token: req.Token, Wrong: true,
			MapVersion: s.smap.Version,
			HasMap:     s.smap.Version > req.MapVersion,
			Map:        s.mapIfNewer(req.MapVersion),
		})
		return
	}
	if s.applyShardRow(req) {
		s.bufferDelta(req)
	}
	s.sstats.PutsServed++
	s.rt.Send(from, types.AnyNIC, MsgPutAck, PutAck{
		Token:      req.Token,
		MapVersion: s.smap.Version,
		HasMap:     s.smap.Version > req.MapVersion,
		Map:        s.mapIfNewer(req.MapVersion),
	})
}

func (s *Service) mapIfNewer(theirs uint64) shard.Map {
	if s.smap.Version > theirs {
		return s.smap
	}
	return shard.Map{}
}

// get serves a keyed read from the shard store. Any copy holder answers;
// an instance that lost the range refuses (stale-read guard).
func (s *Service) get(from types.Addr, req GetReq) {
	key := shard.NodeKey(req.Node)
	role := s.smap.RoleOf(s.part, key)
	if role == shard.RoleNone || req.MapVersion > s.smap.Version {
		s.sstats.WrongShard++
		s.rt.Send(from, types.AnyNIC, MsgGetAck, GetAck{
			Token: req.Token, Wrong: true,
			MapVersion: s.smap.Version,
			HasMap:     s.smap.Version > req.MapVersion,
			Map:        s.mapIfNewer(req.MapVersion),
		})
		return
	}
	ack := GetAck{
		Token:      req.Token,
		Primary:    role == shard.RolePrimary,
		MapVersion: s.smap.Version,
		HasMap:     s.smap.Version > req.MapVersion,
		Map:        s.mapIfNewer(req.MapVersion),
	}
	if r, ok := s.sres[req.Node]; ok {
		ack.Res, ack.Found = r, true
	}
	for _, a := range s.sapps {
		if a.Node == req.Node {
			ack.Apps = append(ack.Apps, a)
			ack.Found = true
		}
	}
	s.sstats.GetsServed++
	s.rt.Send(from, types.AnyNIC, MsgGetAck, ack)
}

// applyShardRow lands one row in the shard store, newest sample wins;
// reports whether the store changed.
func (s *Service) applyShardRow(req PutReq) bool {
	switch req.Kind {
	case "res":
		if old, ok := s.sres[req.Res.Node]; ok && old.Collected.After(req.Res.Collected) {
			return false
		}
		s.sres[req.Res.Node] = req.Res
		return true
	case "app":
		key := req.App.Node.String() + "/" + req.App.Name
		if old, ok := s.sapps[key]; ok && old.Updated.After(req.App.Updated) {
			return false
		}
		if req.App.Alive {
			s.sapps[key] = req.App
		} else {
			// A tombstone still propagates so replicas delete too.
			delete(s.sapps, key)
		}
		return true
	}
	return false
}

// bufferDelta queues a primary-applied write for the next delta flush,
// coalescing per key, and arms the flush timer.
func (s *Service) bufferDelta(req PutReq) {
	switch req.Kind {
	case "res":
		s.deltaRes[req.Res.Node] = req.Res
	case "app":
		s.deltaApps[req.App.Node.String()+"/"+req.App.Name] = req.App
	default:
		return
	}
	if s.pendingSince.IsZero() {
		s.pendingSince = s.rt.Now()
	}
	if !s.flushArmed {
		s.flushArmed = true
		s.rt.After(s.cfg.DeltaFlush, s.flushDeltas)
	}
}

// flushDeltas hands the buffered writes to the co-located gossip instance
// as one sequenced batch; the epidemic rounds carry it to every bulletin
// instance with bounded fanout.
func (s *Service) flushDeltas() {
	s.flushArmed = false
	rows := len(s.deltaRes) + len(s.deltaApps)
	if rows == 0 {
		return
	}
	s.deltaSeq++
	batch := DeltaBatch{Part: s.part, MapVersion: s.smap.Version, Seq: s.deltaSeq}
	for _, r := range s.deltaRes {
		batch.Res = append(batch.Res, r)
	}
	for _, a := range s.deltaApps {
		batch.Apps = append(batch.Apps, a)
	}
	s.deltaRes = make(map[types.NodeID]types.ResourceStats)
	s.deltaApps = make(map[string]types.AppState)
	s.pendingSince = time.Time{}
	s.sstats.DeltaBatchesOut++
	s.sstats.DeltaRowsOut += uint64(rows)
	s.rt.Send(types.Addr{Node: s.rt.Node(), Service: types.SvcGossip},
		types.AnyNIC, gossip.MsgSubmit, gossip.SubmitMsg{Seq: s.deltaSeq, Data: batch.AppendWire(nil)})
}

// onGossipDelta applies a peer primary's delta batch delivered by the
// co-located gossip instance: dedup and gap-detect by per-source sequence,
// land the rows we hold copies of, and invalidate the query-cache entries
// those rows make stale. A gap means the source flushed batches we never
// saw (gossip log truncated past its DigestCap) — the repair is a
// requestSync full pull.
func (s *Service) onGossipDelta(d gossip.DeliverMsg) {
	var batch DeltaBatch
	if len(d.Data) == 0 || batch.DecodeWire(d.Data) != nil {
		return
	}
	if batch.Part == s.part {
		return
	}
	last := s.applied[batch.Part]
	if batch.Seq <= last {
		s.sstats.DeltaDups++
		return
	}
	if last > 0 && batch.Seq > last+1 {
		// Missed at least one batch from this source: pull a full sync.
		s.sstats.DeltaGaps++
		if n, ok := s.smap.Node(batch.Part); ok {
			s.requestSync(types.Addr{Node: n, Service: types.SvcDB})
		}
	}
	s.applied[batch.Part] = batch.Seq
	s.sstats.DeltasIn++
	for _, r := range batch.Res {
		if s.smap.OwnedBy(s.part, shard.NodeKey(r.Node)) {
			s.applyShardRow(PutReq{Kind: "res", Res: r})
		}
		s.invalidateCacheFor(r.Node)
	}
	for _, a := range batch.Apps {
		if s.smap.OwnedBy(s.part, shard.NodeKey(a.Node)) {
			s.applyShardRow(PutReq{Kind: "app", App: a})
		}
		s.invalidateCacheFor(a.Node)
	}
}

// invalidateCacheFor drops the cached cluster-query snapshot that contained
// the given node's rows: the delta proves it stale.
func (s *Service) invalidateCacheFor(n types.NodeID) {
	part, ok := s.cacheIndex[n]
	if !ok {
		return
	}
	if _, held := s.qcache[part]; held {
		delete(s.qcache, part)
		s.sstats.CacheInvalidations++
	}
	delete(s.cacheIndex, n)
}

// requestSync pulls a peer's full shard store (map change, gap, restart).
func (s *Service) requestSync(peer types.Addr) {
	tok := s.pending.New(s.cfg.FetchTimeout, func(payload any) {
		ack, ok := payload.(SyncAck)
		if !ok {
			return
		}
		s.sstats.Syncs++
		if ack.Seq > s.applied[ack.Part] {
			s.applied[ack.Part] = ack.Seq
		}
		for _, r := range ack.Res {
			if s.smap.OwnedBy(s.part, shard.NodeKey(r.Node)) {
				s.applyShardRow(PutReq{Kind: "res", Res: r})
			}
		}
		for _, a := range ack.Apps {
			if s.smap.OwnedBy(s.part, shard.NodeKey(a.Node)) {
				s.applyShardRow(PutReq{Kind: "app", App: a})
			}
		}
	}, nil)
	s.rt.Send(peer, types.AnyNIC, MsgSync, SyncReq{Token: tok})
}

// serveSync answers a peer's sync with everything in the shard store.
func (s *Service) serveSync(from types.Addr, req SyncReq) {
	ack := SyncAck{Token: req.Token, Part: s.part, Seq: s.deltaSeq}
	for _, r := range s.sres {
		ack.Res = append(ack.Res, r)
	}
	for _, a := range s.sapps {
		ack.Apps = append(ack.Apps, a)
	}
	s.rt.Send(from, types.AnyNIC, MsgSyncAck, ack)
}
