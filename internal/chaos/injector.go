// Package chaos is the repository's one fault language and its
// deterministic fault fabric. An Injector subjects every datagram to
// seeded, reproducible faults — probabilistic drop/duplicate/delay rules
// per (peer, plane, direction), whole network planes taken down ("NIC
// down"), and full network partitions (peer sets blackholed). A Scenario
// is a small text DSL of timed steps (nic-down, partition, heal, kill, …)
// that runs on either substrate: a Runner replays it against one real
// node's injector (plugged into wire.WithOutboundFilter and
// wire.WithInboundFilter) on the wall clock, from tests or from
// phoenix-node -chaos; a SimApplier replays it in the discrete-event
// simulator, with one injector per simulated node, for the paper's
// Tables 1-3, phoenix-sim and the simulator tests.
//
// Determinism: every (peer, plane, direction) lane draws from its own
// rand.Rand seeded from the injector seed and the lane identity, and each
// matched datagram consumes a fixed number of draws regardless of outcome.
// Two runs that present the same datagram sequence on a lane therefore
// suffer the same fault sequence, whatever the other lanes do in between.
package chaos

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// Directions a rule can apply to.
const (
	DirOut  = "out"
	DirIn   = "in"
	DirBoth = "both"
)

// Rule subjects matching datagrams to probabilistic faults. Zero-valued
// match fields are wildcards via the canonical constructors (AnyPeer,
// AnyPlane); Drop and Dup are probabilities in [0,1], Delay postpones
// every surviving matched datagram by a fixed duration.
type Rule struct {
	Peer  types.NodeID // AnyPeer matches all peers
	Plane int          // AnyPlane matches all planes
	Dir   string       // DirOut, DirIn or DirBoth ("" = both)
	Drop  float64
	Dup   float64
	Delay time.Duration
	// Ramp makes the delay a gray failure: the effective latency climbs
	// linearly from zero to Delay over Ramp, measured from Start (AddRule
	// stamps a zero Start with the current time). Zero Ramp applies the
	// full Delay at once.
	Ramp  time.Duration
	Start time.Time
}

// Wildcard match values.
const (
	AnyPeer  = types.NodeID(-1)
	AnyPlane = -1
)

func (r Rule) matches(peer types.NodeID, plane int, dir string) bool {
	if r.Peer != AnyPeer && r.Peer != peer {
		return false
	}
	if r.Plane != AnyPlane && r.Plane != plane {
		return false
	}
	return r.Dir == "" || r.Dir == DirBoth || r.Dir == dir
}

// Action is one chaos decision, reported through the Trace hook.
type Action struct {
	Peer    types.NodeID
	Plane   int
	Dir     string
	Verdict string // "drop", "dup", "delay", "pass", "plane-down", "blocked"
}

type laneKey struct {
	peer  types.NodeID
	plane int
	dir   string
}

// Injector is the fault decision engine. Safe for concurrent use: the
// wire transport calls its filters from per-plane read loops and send
// paths, while a Runner reconfigures it from timer goroutines.
type Injector struct {
	seed int64
	clk  clock.Clock // ramps and delays: clock.Real{} on the wire

	// Trace, when non-nil, receives every decision. Set it before traffic
	// flows; it is read without the lock.
	Trace func(Action)

	mu        sync.Mutex
	rules     []Rule
	planeDown map[int]bool
	blocked   map[types.NodeID]bool
	rngs      map[laneKey]*rand.Rand
	counts    map[string]int64
}

// New builds an injector whose fault sequences derive from seed and
// whose delays and ramps run on clk.
func New(seed int64, clk clock.Clock) *Injector {
	return &Injector{
		seed:      seed,
		clk:       clk,
		planeDown: make(map[int]bool),
		blocked:   make(map[types.NodeID]bool),
		rngs:      make(map[laneKey]*rand.Rand),
		counts:    make(map[string]int64),
	}
}

// laneRNG returns the lane's private random stream, creating it
// deterministically from the injector seed and the lane identity.
// Callers hold mu.
func (inj *Injector) laneRNG(key laneKey) *rand.Rand {
	if rng, ok := inj.rngs[key]; ok {
		return rng
	}
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, uint64(key.peer); i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte{byte(key.plane)})
	h.Write([]byte(key.dir))
	rng := rand.New(rand.NewSource(inj.seed ^ int64(h.Sum64())))
	inj.rngs[key] = rng
	return rng
}

// AddRule appends a fault rule. Rules are evaluated in insertion order;
// the first match decides.
func (inj *Injector) AddRule(r Rule) {
	if r.Ramp > 0 && r.Start.IsZero() {
		r.Start = inj.clk.Now()
	}
	inj.mu.Lock()
	inj.rules = append(inj.rules, r)
	inj.mu.Unlock()
}

// effectiveDelay resolves a rule's latency at now, accounting for the
// ramp of a gray-failure rule.
func (r Rule) effectiveDelay(now time.Time) time.Duration {
	if r.Delay <= 0 {
		return 0
	}
	if r.Ramp <= 0 {
		return r.Delay
	}
	elapsed := now.Sub(r.Start)
	if elapsed >= r.Ramp {
		return r.Delay
	}
	if elapsed <= 0 {
		return 0
	}
	return time.Duration(float64(r.Delay) * float64(elapsed) / float64(r.Ramp))
}

// ClearRules removes every fault rule (plane-downs and partitions stay).
func (inj *Injector) ClearRules() {
	inj.mu.Lock()
	inj.rules = nil
	inj.mu.Unlock()
}

// SetPlaneDown blackholes (or restores) one plane in both directions —
// the "NIC down" fault.
func (inj *Injector) SetPlaneDown(plane int, down bool) {
	inj.mu.Lock()
	if down {
		inj.planeDown[plane] = true
	} else {
		delete(inj.planeDown, plane)
	}
	inj.mu.Unlock()
}

// Block blackholes traffic to and from the given peers on every plane —
// the building block of network partitions.
func (inj *Injector) Block(peers ...types.NodeID) {
	inj.mu.Lock()
	for _, p := range peers {
		inj.blocked[p] = true
	}
	inj.mu.Unlock()
}

// Partition splits the cluster into groups: from self's point of view,
// every listed node outside self's group becomes unreachable. Nodes in no
// group keep full connectivity.
func (inj *Injector) Partition(self types.NodeID, groups [][]types.NodeID) {
	for _, g := range groups {
		if !slices.Contains(g, self) {
			inj.Block(g...)
		}
	}
}

// Heal restores full connectivity: partitions lifted, planes back up,
// fault rules cleared. Lane RNG streams are kept, so a healed injector
// continues its deterministic sequence.
func (inj *Injector) Heal() {
	inj.mu.Lock()
	inj.rules = nil
	inj.planeDown = make(map[int]bool)
	inj.blocked = make(map[types.NodeID]bool)
	inj.mu.Unlock()
}

// Counts snapshots the per-verdict decision counters.
func (inj *Injector) Counts() map[string]int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int64, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

func (inj *Injector) record(key laneKey, verdict string) {
	inj.counts[verdict]++
	if inj.Trace != nil {
		inj.Trace(Action{Peer: key.peer, Plane: key.plane, Dir: key.dir, Verdict: verdict})
	}
}

// decide runs one datagram through the fabric and returns what to do with
// it: deliveries is how many times forward should run (0 = drop, 2 =
// duplicate), delay postpones them.
func (inj *Injector) decide(key laneKey) (deliveries int, delay time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.planeDown[key.plane] {
		inj.record(key, "plane-down")
		return 0, 0
	}
	if inj.blocked[key.peer] {
		inj.record(key, "blocked")
		return 0, 0
	}
	for _, r := range inj.rules {
		if !r.matches(key.peer, key.plane, key.dir) {
			continue
		}
		// Fixed draw order — drop then dup — keeps lane streams aligned
		// across runs whatever the verdicts.
		rng := inj.laneRNG(key)
		dropDraw, dupDraw := rng.Float64(), rng.Float64()
		if dropDraw < r.Drop {
			inj.record(key, "drop")
			return 0, 0
		}
		deliveries = 1
		if dupDraw < r.Dup {
			inj.record(key, "dup")
			deliveries = 2
		}
		if d := r.effectiveDelay(inj.clk.Now()); d > 0 {
			if deliveries == 1 {
				inj.record(key, "delay")
			}
			return deliveries, d
		}
		if deliveries == 1 {
			inj.record(key, "pass")
		}
		return deliveries, 0
	}
	inj.record(key, "pass")
	return 1, 0
}

func (inj *Injector) run(key laneKey, forward func()) {
	deliveries, delay := inj.decide(key)
	emit := func() {
		for i := 0; i < deliveries; i++ {
			forward()
		}
	}
	if deliveries == 0 {
		return
	}
	if delay > 0 {
		inj.clk.AfterFunc(delay, emit)
		return
	}
	emit()
}

// Outbound returns the injector's send-side wire filter.
func (inj *Injector) Outbound() func(peer types.NodeID, plane int, data []byte, transmit func()) {
	return func(peer types.NodeID, plane int, data []byte, transmit func()) {
		inj.run(laneKey{peer: peer, plane: plane, dir: DirOut}, transmit)
	}
}

// Inbound returns the injector's receive-side wire filter.
func (inj *Injector) Inbound() func(peer types.NodeID, plane int, data []byte, deliver func()) {
	return func(peer types.NodeID, plane int, data []byte, deliver func()) {
		inj.run(laneKey{peer: peer, plane: plane, dir: DirIn}, deliver)
	}
}
