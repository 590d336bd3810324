package chaos

import (
	"log"

	"repro/internal/clock"
	"repro/internal/types"
)

// schedule holds the pending steps of a replayed scenario.
type schedule struct {
	clk    clock.Clock
	timers []clock.Timer
}

// replay schedules every step of sc relative to now; apply runs each one
// as its time comes.
func (s *schedule) replay(sc *Scenario, apply func(Step)) {
	for _, st := range sc.Resolve() {
		st := st
		s.timers = append(s.timers, s.clk.AfterFunc(st.At, func() { apply(st) }))
	}
}

// Stop cancels the steps that have not fired yet.
func (s *schedule) Stop() {
	for _, t := range s.timers {
		t.Stop()
	}
	s.timers = nil
}

// Runner replays a scenario against one node's injector on the
// injector's clock (the wall clock on the wire). Every node of a cluster runs the same scenario text with its own
// identity: rule and partition steps reconfigure the local injector
// (partition groups are interpreted from self's point of view), and a
// kill or a node= nic step acts only on the node it names.
type Runner struct {
	inj  *Injector
	self types.NodeID
	// kill is invoked by a kill step naming self, with the step's service
	// ("" = the whole node): phoenix-node exits the process like a crash,
	// or kills the one service through its host; tests stop the node
	// under test.
	kill func(svc string)

	schedule
}

// NewRunner builds a runner for self's injector. kill may be nil when the
// scenario contains no kill step for this node.
func NewRunner(inj *Injector, self types.NodeID, kill func(svc string)) *Runner {
	return &Runner{inj: inj, self: self, kill: kill, schedule: schedule{clk: inj.clk}}
}

// Run schedules every step of the scenario relative to now. Use Stop to
// cancel the steps still pending.
func (r *Runner) Run(sc *Scenario) { r.replay(sc, r.Apply) }

// Apply executes one step immediately (Run's timers land here; tests may
// drive steps directly).
func (r *Runner) Apply(st Step) {
	switch st.Op {
	case "nic-down", "nic-up":
		if st.Node == AnyPeer || st.Node == r.self {
			r.inj.SetPlaneDown(st.Plane, st.Op == "nic-down")
		}
	case "partition":
		r.inj.Partition(r.self, st.Groups)
	case "heal":
		r.inj.Heal()
	case "kill":
		if st.Node == r.self && r.kill != nil {
			log.Printf("chaos: %v: kill step fired", r.self)
			r.kill(st.Svc)
		}
	case "drop", "dup", "delay", "slow", "clear":
		applyRule(r.inj, st)
	}
}

// applyRule runs a rule step (drop, dup, delay, slow or clear) on inj.
func applyRule(inj *Injector, st Step) {
	r := Rule{Peer: st.Peer, Plane: st.Plane, Dir: st.Dir, Delay: st.Delay, Ramp: st.Ramp}
	switch st.Op {
	case "clear":
		inj.ClearRules()
		return
	case "drop":
		r.Drop = st.Prob
	case "dup":
		r.Dup = st.Prob
	}
	inj.AddRule(r)
}
