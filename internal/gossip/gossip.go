// Package gossip is the epidemic dissemination plane: bounded-fanout,
// anti-entropy exchange of cluster state that would otherwise cost its
// originator one message per partition — federation views and bulletin
// delta sequences per source partition. Cross-partition liveness is not
// gossiped: it travels the GSD meta-group ring (paper §4.3).
//
// Every instance keeps a versioned digest of what it knows. Each round it
// picks Fanout random peers — deterministically, from a seeded RNG, so
// chaos runs replay bit-identically — and sends them its digest. A peer
// that knows more pushes exactly the missing suffixes back; a peer that
// knows less answers with its own digest (marked Reply so the exchange
// terminates) and is pushed to in turn. Per-source sequencing is
// preserved end to end: when the bounded in-memory log can no longer
// supply a full suffix, the receiver observes a sequence gap and falls
// back to the bulletin's requestSync full-store pull.
//
// The Engine below is the pure state machine: no timers, no I/O, fully
// deterministic given its seed and call sequence. Service wraps it in a
// simhost process with jittered rounds and wire messages.
package gossip

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/federation"
	"repro/internal/types"
)

// Defaults applied by NewEngine when Config leaves them zero.
const (
	DefaultFanout    = 3
	DefaultInterval  = 2 * time.Second
	DefaultDigestCap = 32
)

// Config parameterises one gossip instance.
type Config struct {
	Part types.PartitionID // partition this instance speaks for
	// Fanout is the number of random peers contacted per round.
	Fanout int
	// Interval is the base round period; the service jitters each round
	// by up to ±Interval/8 so large clusters do not synchronize into
	// bursts.
	Interval time.Duration
	// DigestCap bounds the per-source delta log. Peers further behind
	// than the retained suffix receive a truncated push and repair via
	// the bulletin's requestSync.
	DigestCap int
	// Seed makes peer selection and round jitter deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.DigestCap <= 0 {
		c.DigestCap = DefaultDigestCap
	}
	return c
}

// SourceSeq names the highest contiguous delta sequence known for one
// source partition.
type SourceSeq struct {
	Src types.PartitionID
	Seq uint64
}

// Digest is the "what I know" summary exchanged every round. It is a few
// varints per partition — constant size in cluster state, independent of
// how much data sits behind the versions.
type Digest struct {
	Part       types.PartitionID
	FedVersion uint64
	Deltas     []SourceSeq
}

// Delta is one bulletin delta batch in flight: an opaque encoded
// payload tagged with its source partition and sequence. Gossip relays
// bytes; only the bulletin decodes them.
type Delta struct {
	Src  types.PartitionID
	Seq  uint64
	Data []byte
}

// Updates carries the suffixes a peer was missing. View is nil unless
// the peer's federation view is behind (a zero-version view is never
// sent).
type Updates struct {
	From   types.PartitionID
	View   *federation.View
	Deltas []Delta
}

// Apply reports what HandleUpdates learned, for the host service to
// deliver onward.
type Apply struct {
	// View is non-nil when a newer federation view was adopted.
	View *federation.View
	// Deltas lists fresh, in-order delta payloads per source.
	Deltas []Delta
	// Gapped lists sources whose incoming suffix skipped sequences
	// (evicted past DigestCap); the bulletin repairs via requestSync.
	Gapped []types.PartitionID
}

// Stats is the instance snapshot surfaced at /statusz and /metrics.
type Stats struct {
	Part       int    `json:"part"`
	Fanout     int    `json:"fanout"`
	Rounds     uint64 `json:"rounds"`
	DigestsTx  uint64 `json:"digests_tx"`
	DigestsRx  uint64 `json:"digests_rx"`
	UpdatesTx  uint64 `json:"updates_tx"`
	UpdatesRx  uint64 `json:"updates_rx"`
	DeltasTx   uint64 `json:"deltas_tx"` // log entries pushed to peers
	DeltasRx   uint64 `json:"deltas_rx"` // fresh entries learned
	ViewsRx    uint64 `json:"views_rx"`  // newer fed views adopted via gossip
	Gaps       uint64 `json:"gaps"`      // suffixes that arrived non-contiguous
	Truncated  uint64 `json:"truncated"` // pushes clipped by DigestCap
	FedVersion uint64 `json:"fed_version"`
	Sources    int    `json:"sources"`    // delta sources tracked
	MaxFanout  int    `json:"max_fanout"` // max peers contacted in any round
}

type logEntry struct {
	seq  uint64
	data []byte
}

// srcLog retains the most recent contiguous suffix of one source's
// deltas: entries are ascending and end at last.
type srcLog struct {
	last    uint64
	entries []logEntry
}

// Engine is the deterministic gossip state machine.
type Engine struct {
	cfg  Config
	rng  *rand.Rand
	view federation.View
	logs map[types.PartitionID]*srcLog
	st   Stats
}

// NewEngine builds an engine. The seed is mixed with the partition ID so
// same-seed instances on different partitions still pick different peers.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	seed := cfg.Seed*0x9e3779b9 + int64(cfg.Part) + 1
	return &Engine{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		logs: make(map[types.PartitionID]*srcLog),
		st:   Stats{Part: int(cfg.Part), Fanout: cfg.Fanout},
	}
}

// Config returns the instance's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetView adopts a federation view (higher version wins) from the local
// GSD push path. It reports whether the view changed.
func (e *Engine) SetView(v federation.View) bool {
	return e.adoptView(v)
}

// adoptView is the single view-adoption path. A partition whose hosting
// node changed got a *new* delta source: a replacement primary restarts
// its flush stream at sequence 1, so keeping the dead host's log would
// make every fresh push look like a stale duplicate until the newcomer
// happened to pass the old sequence. Dropping the moved source's log
// re-opens the stream; the data itself is covered by the bulletin's
// map-change requestSync.
func (e *Engine) adoptView(nv federation.View) bool {
	old := e.view.Entries
	if !e.view.Adopt(nv) {
		return false
	}
	for p, en := range e.view.Entries {
		if prev, ok := old[p]; ok && prev.Node != en.Node {
			delete(e.logs, p)
		}
	}
	return true
}

// View returns the current federation view (shared; callers must not
// mutate).
func (e *Engine) View() federation.View { return e.view }

// SeqKnown returns the highest contiguous delta sequence known for src.
func (e *Engine) SeqKnown(src types.PartitionID) uint64 {
	if l, ok := e.logs[src]; ok {
		return l.last
	}
	return 0
}

// AddDelta records one delta batch for a source. Out-of-order duplicates
// are dropped; a forward jump resets the retained suffix to the new
// entry (the receiver-side gap accounting lives in HandleUpdates — this
// path is fed by the local, in-order primary). It reports whether the
// entry was new.
func (e *Engine) AddDelta(src types.PartitionID, seq uint64, data []byte) bool {
	l, ok := e.logs[src]
	if !ok {
		l = &srcLog{}
		e.logs[src] = l
	}
	if seq <= l.last {
		return false
	}
	if l.last > 0 && seq > l.last+1 {
		l.entries = l.entries[:0]
	}
	l.last = seq
	l.entries = append(l.entries, logEntry{seq: seq, data: data})
	if over := len(l.entries) - e.cfg.DigestCap; over > 0 {
		l.entries = append(l.entries[:0], l.entries[over:]...)
	}
	return true
}

// PickPeers starts a round: it returns up to Fanout distinct alive peer
// nodes drawn from the federation view with the engine's seeded RNG.
// The candidate order is the view's sorted partition order, so runs with
// the same seed and view history select identical peers.
func (e *Engine) PickPeers() []types.NodeID {
	e.st.Rounds++
	cand := e.view.PeerNodes(e.cfg.Part)
	k := e.cfg.Fanout
	if k > len(cand) {
		k = len(cand)
	}
	for i := 0; i < k; i++ {
		j := i + e.rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	peers := cand[:k]
	e.st.DigestsTx += uint64(k)
	if k > e.st.MaxFanout {
		e.st.MaxFanout = k
	}
	return peers
}

// Jitter draws a round offset in [-max, +max] from the engine's RNG, so
// timing stays on the deterministic stream.
func (e *Engine) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(e.rng.Int63n(int64(2*max)+1)) - max
}

// Digest summarises what the engine knows, with deterministic (sorted)
// ordering.
func (e *Engine) Digest() Digest {
	d := Digest{Part: e.cfg.Part, FedVersion: e.view.Version}
	srcs := make([]types.PartitionID, 0, len(e.logs))
	for src := range e.logs {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		d.Deltas = append(d.Deltas, SourceSeq{Src: src, Seq: e.logs[src].last})
	}
	return d
}

// HandleDigest processes a peer digest. It returns the updates to push
// back (what we know beyond the digest), whether there are any, and
// whether we should answer with our own Reply digest because the peer
// knows things we lack. Callers pass reply=true for digests already
// marked Reply, which suppresses the counter-digest and terminates the
// exchange.
func (e *Engine) HandleDigest(d Digest, reply bool) (ups Updates, has bool, wantReply bool) {
	e.st.DigestsRx++
	ups.From = e.cfg.Part
	if d.FedVersion < e.view.Version {
		v := e.view.Clone()
		ups.View = &v
		has = true
	}
	theirSeq := make(map[types.PartitionID]uint64, len(d.Deltas))
	for _, ss := range d.Deltas {
		theirSeq[ss.Src] = ss.Seq
	}
	srcs := make([]types.PartitionID, 0, len(e.logs))
	for src := range e.logs {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		l := e.logs[src]
		have := theirSeq[src]
		if have >= l.last {
			continue
		}
		truncated := true
		for _, en := range l.entries {
			if en.seq <= have {
				truncated = false
				continue
			}
			ups.Deltas = append(ups.Deltas, Delta{Src: src, Seq: en.seq, Data: en.data})
		}
		if truncated && len(l.entries) > 0 && l.entries[0].seq > have+1 {
			e.st.Truncated++
		}
		has = true
	}
	if has {
		e.st.UpdatesTx++
		e.st.DeltasTx += uint64(len(ups.Deltas))
	}
	if !reply && e.needs(d, theirSeq) {
		wantReply = true
	}
	return ups, has, wantReply
}

// needs reports whether the peer digest advertises anything newer than
// our state.
func (e *Engine) needs(d Digest, theirSeq map[types.PartitionID]uint64) bool {
	if d.FedVersion > e.view.Version {
		return true
	}
	for src, seq := range theirSeq {
		if seq > e.SeqKnown(src) {
			return true
		}
	}
	return false
}

// HandleUpdates merges a peer push and reports what was new.
func (e *Engine) HandleUpdates(u Updates) Apply {
	e.st.UpdatesRx++
	var ap Apply
	if u.View != nil && e.adoptView(*u.View) {
		v := e.view.Clone()
		ap.View = &v
		e.st.ViewsRx++
	}
	gapped := make(map[types.PartitionID]bool)
	for _, d := range u.Deltas {
		last := e.SeqKnown(d.Src)
		if d.Seq <= last {
			continue
		}
		if last > 0 && d.Seq > last+1 && !gapped[d.Src] {
			gapped[d.Src] = true
			e.st.Gaps++
			ap.Gapped = append(ap.Gapped, d.Src)
		}
		if e.AddDelta(d.Src, d.Seq, d.Data) {
			ap.Deltas = append(ap.Deltas, d)
			e.st.DeltasRx++
		}
	}
	return ap
}

// Stats snapshots the instance counters.
func (e *Engine) Stats() Stats {
	st := e.st
	st.FedVersion = e.view.Version
	st.Sources = len(e.logs)
	return st
}
