// Package bulletin implements the Phoenix data bulletin service (paper
// §4.2, §4.4): an in-memory database storing the cluster-wide physical
// resource and application state. One instance runs per partition; the
// detectors of a partition export their samples to it. The instances form
// a federation: a client can query any instance and receive cluster-wide
// information (single access point), assembled by scatter-gather over the
// peers. If one instance is down, only its partition's state is
// unavailable (paper Figure 5). Keyed reads and writes go through the
// sharded data plane (shardplane.go), whose delta batches replicate
// through the co-located gossip instance.
package bulletin

import (
	"time"

	"repro/internal/codec"
	"repro/internal/federation"
	"repro/internal/gossip"
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/shard"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wirebin"
)

// Message types of the data bulletin service.
const (
	MsgPut      = "db.put"
	MsgQuery    = "db.query"
	MsgResult   = "db.result"
	MsgFetch    = "db.fetch"
	MsgFetchAck = "db.fetch.ack"
)

func init() {
	wirebin.Intern(
		"db.put", "db.query", "db.result", "db.fetch", "db.get", "db.sync",
		"res", "app", // PutReq.Kind vocabulary
	)
	codec.Register(48, PutReq{})
	codec.Register(49, QueryReq{})
	codec.Register(50, FetchReq{})
	codec.Register(51, GetReq{})
	codec.Register(52, SyncReq{})
	codec.Register(53, DeltaBatch{})
	codec.Register(54, GetAck{})
	codec.Register(55, PutAck{})
	codec.Register(56, SyncAck{})
	codec.Register(57, QueryAck{})
	codec.Register(58, FetchAck{})
}

// Scope selects how much of the cluster a query covers.
type Scope int

const (
	ScopePartition Scope = iota // only the receiving instance's partition
	ScopeCluster                // scatter-gather across the federation
)

// PutReq stores one sample. Exactly one of Res/App is meaningful,
// according to Kind. A zero Token is the legacy fire-and-forget detector
// export (home store + shard plane); a non-zero Token is an acked
// data-plane write that only the key's primary accepts. Fwd marks a write
// forwarded between instances toward the key's primary.
type PutReq struct {
	Kind       string // "res" or "app"
	Res        types.ResourceStats
	App        types.AppState
	Token      uint64
	MapVersion uint64 // writer's shard-map version (acked writes)
	Fwd        bool
}

// QueryReq asks for resource and application state.
type QueryReq struct {
	Token      uint64
	Scope      Scope
	MapVersion uint64 // requester's shard-map version, for the piggyback
}

// Snapshot is one partition's worth of bulletin data.
type Snapshot struct {
	Partition types.PartitionID
	Res       []types.ResourceStats
	Apps      []types.AppState
}

// QueryAck answers a query. Missing lists partitions whose instance did
// not answer (failed or unreachable).
type QueryAck struct {
	Token     uint64
	Snapshots []Snapshot
	Missing   []types.PartitionID
	Stale     bool // at least one snapshot came from the read-through cache

	// Shard-map piggyback: set when the requester's map was older.
	MapVersion uint64
	HasMap     bool
	Map        shard.Map
}

// FetchReq asks a peer for its partition snapshot.
type FetchReq struct{ Token uint64 }

// FetchAck answers a fetch.
type FetchAck struct {
	Token uint64
	Snap  Snapshot
}

// DefaultDeltaFlush is the delta-batch flush interval applied when a
// Config leaves DeltaFlush zero.
const DefaultDeltaFlush = 250 * time.Millisecond

// Config tunes an instance.
type Config struct {
	FetchTimeout time.Duration // per-peer scatter-gather deadline
	CacheTTL     time.Duration // how long a cached partition snapshot is served
	EntryTTL     time.Duration // samples older than this are dropped from results; 0 = keep all
	DeltaFlush   time.Duration // sharded data plane's delta-batch flush interval (0 = DefaultDeltaFlush)
}

// cachedSnap is one partition's home snapshot in the read-through cache.
type cachedSnap struct {
	snap Snapshot
	at   time.Time
}

// Service is one data bulletin instance.
type Service struct {
	part types.PartitionID
	view federation.View
	cfg  Config

	rt      rt.Runtime
	pending *rpc.Pending

	res  map[types.NodeID]types.ResourceStats
	apps map[string]types.AppState // keyed by node/proc

	// Read-through cache for cluster queries: per-partition home
	// snapshots with TTL, invalidated by incoming deltas.
	qcache     map[types.PartitionID]cachedSnap
	cacheIndex map[types.NodeID]types.PartitionID // node -> cached partition holding its rows

	// Sharded data plane (shardplane.go).
	smap         shard.Map
	sres         map[types.NodeID]types.ResourceStats
	sapps        map[string]types.AppState
	deltaRes     map[types.NodeID]types.ResourceStats // buffered, coalesced per key
	deltaApps    map[string]types.AppState
	deltaSeq     uint64
	applied      map[types.PartitionID]uint64 // per-source delta sequence
	pendingSince time.Time
	flushArmed   bool
	sstats       ShardStats
}

// NewService builds a bulletin instance.
func NewService(part types.PartitionID, view federation.View, cfg Config) *Service {
	if cfg.DeltaFlush <= 0 {
		cfg.DeltaFlush = DefaultDeltaFlush
	}
	return &Service{
		part: part, view: view.Clone(), cfg: cfg,
		res:        make(map[types.NodeID]types.ResourceStats),
		apps:       make(map[string]types.AppState),
		qcache:     make(map[types.PartitionID]cachedSnap),
		cacheIndex: make(map[types.NodeID]types.PartitionID),
		sres:       make(map[types.NodeID]types.ResourceStats),
		sapps:      make(map[string]types.AppState),
		deltaRes:   make(map[types.NodeID]types.ResourceStats),
		deltaApps:  make(map[string]types.AppState),
		applied:    make(map[types.PartitionID]uint64),
	}
}

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcDB }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) {
	s.rt = h
	s.pending = rpc.NewPending(h)
	s.smap = shard.FromView(s.view, shard.DefaultReplicas, shard.DefaultVNodes)
	// A (re)started instance begins empty: pull the shard stores of every
	// mapped peer.
	for _, e := range s.smap.Entries {
		if e.Part != s.part {
			s.requestSync(types.Addr{Node: e.Node, Service: types.SvcDB})
		}
	}
}

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// Entries reports the number of resource records held locally.
func (s *Service) Entries() int { return len(s.res) }

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	switch msg.Type {
	case MsgPut:
		req, ok := msg.Payload.(PutReq)
		if !ok {
			return
		}
		switch {
		case req.Fwd:
			s.applyForwarded(req)
		case req.Token != 0:
			s.putAcked(msg.From, req)
		default:
			// Legacy detector export: home store, then the shard plane.
			s.applyHome(req)
			s.shardWrite(req)
		}
	case MsgGet:
		req, ok := msg.Payload.(GetReq)
		if !ok {
			return
		}
		s.get(msg.From, req)
	case MsgQuery:
		req, ok := msg.Payload.(QueryReq)
		if !ok {
			return
		}
		s.query(msg.From, req)
	case MsgFetch:
		req, ok := msg.Payload.(FetchReq)
		if !ok {
			return
		}
		s.rt.Send(msg.From, types.AnyNIC, MsgFetchAck, FetchAck{Token: req.Token, Snap: s.local()})
	case MsgFetchAck:
		ack, ok := msg.Payload.(FetchAck)
		if !ok {
			return
		}
		s.pending.Resolve(ack.Token, ack)
	case MsgSync:
		req, ok := msg.Payload.(SyncReq)
		if !ok {
			return
		}
		s.serveSync(msg.From, req)
	case MsgSyncAck:
		ack, ok := msg.Payload.(SyncAck)
		if !ok {
			return
		}
		s.pending.Resolve(ack.Token, ack)
	case gossip.MsgDeliver:
		if d, ok := msg.Payload.(gossip.DeliverMsg); ok {
			s.onGossipDelta(d)
		}
	case federation.MsgView:
		if vm, ok := msg.Payload.(federation.ViewMsg); ok {
			if s.view.Adopt(vm.View) {
				s.rebuildMap()
			}
		}
	}
}

// applyHome lands a detector export in the home store — this partition's
// own samples, what MsgFetch peers scatter-gather.
func (s *Service) applyHome(req PutReq) {
	switch req.Kind {
	case "res":
		s.res[req.Res.Node] = req.Res
	case "app":
		key := req.App.Node.String() + "/" + req.App.Name
		if req.App.Alive {
			s.apps[key] = req.App
		} else {
			delete(s.apps, key)
		}
	}
}

// local assembles this instance's partition snapshot, applying the entry
// TTL.
func (s *Service) local() Snapshot {
	snap := Snapshot{Partition: s.part}
	now := s.rt.Now()
	for _, r := range s.res {
		if s.cfg.EntryTTL > 0 && now.Sub(r.Collected) > s.cfg.EntryTTL {
			continue
		}
		snap.Res = append(snap.Res, r)
	}
	for _, a := range s.apps {
		if s.cfg.EntryTTL > 0 && now.Sub(a.Updated) > s.cfg.EntryTTL {
			continue
		}
		snap.Apps = append(snap.Apps, a)
	}
	return snap
}

func (s *Service) query(replyTo types.Addr, req QueryReq) {
	s.sstats.QueriesServed++
	if req.Scope == ScopePartition {
		s.reply(replyTo, req, QueryAck{Snapshots: []Snapshot{s.local()}})
		return
	}
	// Cluster scope: read-through — serve each peer partition from its
	// cached snapshot while fresh, fetch only the expired or missing ones.
	// Partitions are walked in ascending order, so the fetch fan-out does
	// not depend on map iteration.
	now := s.rt.Now()
	var missing []types.PartitionID
	gathered := make([]Snapshot, 0, len(s.view.Entries))
	var fetch []types.PartitionID
	stale := false
	for _, p := range s.view.Partitions() {
		if p == s.part {
			continue
		}
		if !s.view.Entries[p].Alive {
			// Absent from the view's alive set: missing a priori.
			missing = append(missing, p)
			continue
		}
		if c, held := s.qcache[p]; held && now.Sub(c.at) <= s.cfg.CacheTTL {
			s.sstats.CacheHits++
			gathered = append(gathered, c.snap)
			stale = true
			continue
		}
		s.sstats.CacheMisses++
		fetch = append(fetch, p)
	}
	if len(fetch) == 0 {
		snaps := append([]Snapshot{s.local()}, gathered...)
		s.reply(replyTo, req, QueryAck{Snapshots: snaps, Missing: missing, Stale: stale})
		return
	}
	remaining := len(fetch)
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		snaps := append([]Snapshot{s.local()}, gathered...)
		s.reply(replyTo, req, QueryAck{Snapshots: snaps, Missing: missing, Stale: stale})
	}
	for _, peerPart := range fetch {
		peerPart := peerPart
		tok := s.pending.New(s.cfg.FetchTimeout,
			func(payload any) {
				ack := payload.(FetchAck)
				gathered = append(gathered, ack.Snap)
				s.cacheSnap(peerPart, ack.Snap)
				finish()
			},
			func() {
				missing = append(missing, peerPart)
				finish()
			})
		peer := types.Addr{Node: s.view.Entries[peerPart].Node, Service: types.SvcDB}
		s.rt.Send(peer, types.AnyNIC, MsgFetch, FetchReq{Token: tok})
	}
}

// reply sends a query answer with the shard map piggybacked when the
// requester's copy was older.
func (s *Service) reply(replyTo types.Addr, req QueryReq, ack QueryAck) {
	ack.Token = req.Token
	ack.MapVersion = s.smap.Version
	if s.smap.Version > req.MapVersion {
		ack.HasMap = true
		ack.Map = s.smap
	}
	s.rt.Send(replyTo, types.AnyNIC, MsgResult, ack)
}

// cacheSnap stores a freshly fetched partition snapshot and indexes its
// rows for delta invalidation.
func (s *Service) cacheSnap(p types.PartitionID, snap Snapshot) {
	s.qcache[p] = cachedSnap{snap: snap, at: s.rt.Now()}
	for _, r := range snap.Res {
		s.cacheIndex[r.Node] = p
	}
	for _, a := range snap.Apps {
		s.cacheIndex[a.Node] = p
	}
}

var _ simhost.Process = (*Service)(nil)
