package rt

import (
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// Fake is an in-memory Runtime for protocol unit tests. Sends are recorded
// (and optionally routed to a dispatcher); timers run on any clock,
// typically the simulation engine.
type Fake struct {
	NodeID  types.NodeID
	Service string
	Clk     clock.Clock
	Rng     *rand.Rand
	Sent    []types.Message
	// Route, when non-nil, receives every sent message (a test can wire
	// two Fakes together or drop messages selectively).
	Route func(msg types.Message)
}

// NewFake builds a fake runtime for a daemon at node/service using clk.
func NewFake(node types.NodeID, service string, clk clock.Clock, rng *rand.Rand) *Fake {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Fake{NodeID: node, Service: service, Clk: clk, Rng: rng}
}

// Node implements Runtime.
func (f *Fake) Node() types.NodeID { return f.NodeID }

// Self implements Runtime.
func (f *Fake) Self() types.Addr { return types.Addr{Node: f.NodeID, Service: f.Service} }

// Now implements Runtime.
func (f *Fake) Now() time.Time { return f.Clk.Now() }

// Rand implements Runtime.
func (f *Fake) Rand() *rand.Rand { return f.Rng }

// Send implements Runtime, recording the message and routing it if a Route
// is installed.
func (f *Fake) Send(to types.Addr, nic int, typ string, payload any) {
	msg := types.Message{From: f.Self(), To: to, NIC: nic, Type: typ, Payload: payload, Sent: f.Now()}
	f.Sent = append(f.Sent, msg)
	if f.Route != nil {
		f.Route(msg)
	}
}

// After implements Runtime.
func (f *Fake) After(d time.Duration, fn func()) clock.Timer {
	return f.Clk.AfterFunc(d, fn)
}

var _ Runtime = (*Fake)(nil)
