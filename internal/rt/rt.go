// Package rt defines the runtime interface Phoenix kernel daemons are
// written against. The simulated host's process handle implements it, and
// tests substitute lightweight fakes, so protocol logic (heartbeat
// analysis, membership, federation) never depends on the simulator
// directly.
package rt

import (
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// Runtime is the execution environment of one daemon: identity, messaging,
// and timers.
//
// Timer-cancellation contract: when the daemon shuts down (killed,
// exited, node power-off, or Runtime closed), the callback of every timer
// armed through After is suppressed, whether the timer is still pending
// or already fired — it must never observe the daemon's state after
// death. Daemon implementations therefore need no death checks in
// callbacks, and a wall-clock Runtime (internal/wire) is drop-in safe for
// the simulator's: both guarantee that no After callback runs after
// shutdown. The one intentional exception is rt.Fake, whose timers run on
// the bare test clock so unit tests can drive protocol code past its
// lifetime explicitly.
type Runtime interface {
	// Node is the hosting node's ID.
	Node() types.NodeID
	// Self is the daemon's network address.
	Self() types.Addr
	// Now reads the clock.
	Now() time.Time
	// Rand is a deterministic random source.
	Rand() *rand.Rand
	// Send transmits a message; delivery is best-effort (datagram
	// semantics). nic selects the network plane, or types.AnyNIC.
	Send(to types.Addr, nic int, typ string, payload any)
	// After schedules a callback, suppressed automatically at daemon death.
	After(d time.Duration, f func()) clock.Timer
}
