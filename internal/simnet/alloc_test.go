//go:build !race

package simnet

import (
	"testing"

	"repro/internal/types"
)

// TestAccountZeroAllocs pins the per-message accounting at zero
// allocations once a message type and a destination have been seen: no
// counter name is built and no payload is encoded. Excluded from race
// builds, whose runtime adds allocations of its own.
func TestAccountZeroAllocs(t *testing.T) {
	_, net := newNet(t, 2)
	net.Register(addr(1, "x"), func(types.Message) {})
	msg := types.Message{From: addr(0, "x"), To: addr(1, "x"), Type: "hb", Payload: sized{n: 40}}
	net.account(msg, true) // first sight resolves the counters
	net.deliver(msg)
	allocs := testing.AllocsPerRun(200, func() {
		net.account(msg, true)
		net.deliver(msg)
	})
	if allocs != 0 {
		t.Fatalf("account+deliver allocate %v/op in steady state, want 0", allocs)
	}
}
