// Package faultinject reproduces the paper's fault-tolerance evaluation
// (§5.1, Tables 1-3): it injects the three "unhealthy situations" — daemon
// process failure, node failure, network-interface failure — against the
// watch daemon, the group service daemon and the event service, and splits
// each incident into detecting, diagnosing and recovery time by observing
// the kernel's own failure/recovery events.
//
// Injections are phase-aligned just after the victim's last heartbeat, as
// the paper's measurements imply (detection time equals the full heartbeat
// interval).
package faultinject

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Component names the daemon under test.
type Component string

const (
	CompWD  Component = "wd"
	CompGSD Component = "gsd"
	CompES  Component = "es"
)

// Result is one table row.
type Result struct {
	Component Component
	Fault     types.FaultKind
	Incident  *metrics.Incident
}

// Row renders the result like the paper's tables.
func (r Result) Row() string {
	in := r.Incident
	return fmt.Sprintf("%-8s %-8v detect=%-12v diagnose=%-12v recover=%-12v sum=%v",
		r.Component, r.Fault, in.Detect(), in.Diagnose(), in.Recover(), in.Sum())
}

// recorder subscribes to every suspect/fail/recover event and stamps the
// current incident.
type recorder struct {
	incident *metrics.Incident
}

func (r *recorder) handle(ev types.Event) {
	in := r.incident
	if in == nil {
		return
	}
	switch ev.Type {
	case types.EvNodeSuspect, types.EvNetSuspect, types.EvServiceSuspect, types.EvMemberSuspect:
		if in.DetectedAt.IsZero() {
			in.DetectedAt = ev.When
		}
	case types.EvProcFail, types.EvNodeFail, types.EvNetFail, types.EvServiceFail, types.EvMemberFail:
		if in.DiagnosedAt.IsZero() {
			in.DiagnosedAt = ev.When
		}
	case types.EvProcRecover, types.EvNodeRecover, types.EvNetRecover, types.EvServiceRecover, types.EvMemberRecover:
		if in.RecoveredAt.IsZero() {
			in.RecoveredAt = ev.When
		}
	}
}

var allPhaseEvents = []types.EventType{
	types.EvNodeSuspect, types.EvNetSuspect, types.EvServiceSuspect, types.EvMemberSuspect,
	types.EvProcFail, types.EvNodeFail, types.EvNetFail, types.EvServiceFail, types.EvMemberFail,
	types.EvProcRecover, types.EvNodeRecover, types.EvNetRecover, types.EvServiceRecover, types.EvMemberRecover,
}

// Scenario runs one (component, fault) injection on a fresh cluster built
// from spec and returns the measured incident.
func Scenario(spec cluster.Spec, comp Component, kind types.FaultKind) (Result, error) {
	c, err := cluster.Build(spec)
	if err != nil {
		return Result{}, err
	}
	c.WarmUp()

	rec := &recorder{}
	recProc := core.NewClientProc("recorder", 0, 0)
	subscribed := false
	recProc.OnStart = func(cp *core.ClientProc) {
		cp.Events.Subscribe(allPhaseEvents, -1, "", rec.handle,
			func(id uint64) { subscribed = id != 0 })
	}
	// The recorder lives on a compute node of partition 0; victims live in
	// partition 2 so recorder-side services are never the failed component.
	recNode := c.Topo.Partitions[0].Members[3]
	if _, err := c.Host(recNode).Spawn(recProc); err != nil {
		return Result{}, err
	}
	c.RunFor(time.Second)
	if !subscribed {
		return Result{}, fmt.Errorf("faultinject: recorder subscription failed")
	}
	// Let detectors and monitors settle into steady state.
	c.RunFor(c.Spec.Params.HeartbeatInterval + c.Spec.Params.HeartbeatInterval/2)

	victimPart := c.Topo.Partitions[2]
	timeline := &metrics.Timeline{}
	label := fmt.Sprintf("%s/%v", comp, kind)

	inject, noRecovery, err := plan(c, comp, kind, victimPart.ID)
	if err != nil {
		return Result{}, err
	}

	// Phase-align: run until the victim's next heartbeat-class message is
	// delivered, then 10 ms more, then inject.
	alignTo(c, comp, kind, victimPart)
	in := timeline.Begin(label, c.Engine.Now())
	in.NoRecovery = noRecovery
	rec.incident = in
	inject()

	// Run until the incident completes (or give up after several
	// intervals — recovery for node faults includes migration).
	deadline := c.Engine.Elapsed() + 5*c.Spec.Params.HeartbeatInterval + 30*time.Second
	for c.Engine.Elapsed() < deadline && !in.Complete() {
		c.RunFor(500 * time.Millisecond)
	}
	if !in.Complete() {
		return Result{Component: comp, Fault: kind, Incident: in},
			fmt.Errorf("faultinject: %s incident incomplete: %+v", label, in)
	}
	return Result{Component: comp, Fault: kind, Incident: in}, nil
}

// plan prepares the injection closure for a scenario and reports whether
// recovery is a no-op by design (paper: one NIC of three is not fatal; a
// dead node's WD is not migrated).
func plan(c *cluster.Cluster, comp Component, kind types.FaultKind, part types.PartitionID) (func(), bool, error) {
	info, _ := c.Topo.Partition(part)
	switch comp {
	case CompWD:
		victim := info.Members[len(info.Members)-1] // a compute node
		switch kind {
		case types.FaultProcess:
			return func() { _ = c.Host(victim).Kill(types.SvcWD) }, false, nil
		case types.FaultNode:
			return func() { c.Host(victim).PowerOff() }, true, nil
		case types.FaultNIC:
			return func() { _ = c.Net.SetNICUp(victim, 2, false) }, true, nil
		}
	case CompGSD:
		victim := info.Server
		switch kind {
		case types.FaultProcess:
			return func() { _ = c.Host(victim).Kill(types.SvcGSD) }, false, nil
		case types.FaultNode:
			return func() { c.Host(victim).PowerOff() }, false, nil
		case types.FaultNIC:
			return func() { _ = c.Net.SetNICUp(victim, 2, false) }, true, nil
		}
	case CompES:
		victim := info.Server
		switch kind {
		case types.FaultProcess:
			return func() { _ = c.Host(victim).Kill(types.SvcES) }, false, nil
		case types.FaultNode:
			return func() { c.Host(victim).PowerOff() }, false, nil
		case types.FaultNIC:
			return func() { _ = c.Net.SetNICUp(victim, 2, false) }, true, nil
		}
	}
	return nil, false, fmt.Errorf("faultinject: unknown scenario %s/%v", comp, kind)
}

// alignTo advances the simulation to 10 ms past the next liveness check
// relevant to the scenario, so detection measures a full interval (the
// paper's injection discipline: detecting time equals the heartbeat
// interval).
func alignTo(c *cluster.Cluster, comp Component, kind types.FaultKind, part config.PartitionInfo) {
	// The ES process-failure path is detected by the GSD's periodic local
	// service check, which ticks from the GSD's start (boot + its exec
	// latency); there is no message to observe, so compute the next tick.
	if comp == CompES && kind == types.FaultProcess {
		period := c.Spec.Params.LocalCheckPeriod
		gsdStart := simhost.DefaultCosts().ExecLatency[types.SvcGSD]
		now := c.Engine.Elapsed()
		k := (now-gsdStart)/period + 1
		c.Engine.RunUntil(gsdStart + k*period + 10*time.Millisecond)
		return
	}
	var want func(m types.Message) bool
	switch {
	case comp == CompGSD && kind != types.FaultNIC:
		// Detected by the ring successor missing the victim's meta
		// heartbeat.
		want = func(m types.Message) bool {
			return m.Type == membership.MsgMetaHB && m.From.Node == part.Server
		}
	case comp == CompES && kind == types.FaultNode:
		// The server node's death is detected through the meta-group.
		want = func(m types.Message) bool {
			return m.Type == membership.MsgMetaHB && m.From.Node == part.Server
		}
	case comp == CompGSD || comp == CompES: // NIC faults on the server node
		// Detected by the victim GSD's own partition monitor through its
		// local WD's heartbeats.
		want = func(m types.Message) bool {
			return m.Type == heartbeat.MsgHeartbeat && m.From.Node == part.Server
		}
	default: // WD scenarios: the victim compute node's heartbeat
		victim := part.Members[len(part.Members)-1]
		want = func(m types.Message) bool {
			return m.Type == heartbeat.MsgHeartbeat && m.From.Node == victim
		}
	}
	seen := false
	prev := c.Net.Trace
	c.Net.Trace = func(m types.Message) {
		if prev != nil {
			prev(m)
		}
		if want(m) {
			seen = true
		}
	}
	guard := c.Engine.Elapsed() + 4*c.Spec.Params.HeartbeatInterval
	for !seen && c.Engine.Elapsed() < guard && c.Engine.Step() {
	}
	c.Net.Trace = prev
	c.RunFor(10 * time.Millisecond)
}

// Table runs the three unhealthy situations for one component (a full
// paper table) on fresh clusters built from spec.
func Table(spec cluster.Spec, comp Component) ([]Result, error) {
	kinds := []types.FaultKind{types.FaultProcess, types.FaultNode, types.FaultNIC}
	out := make([]Result, 0, len(kinds))
	for _, k := range kinds {
		res, err := Scenario(spec, comp, k)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
