// Package simhost models one cluster node as the Phoenix kernel sees it: an
// OS agent that answers probes and executes remote spawn/kill/exec requests,
// a process table holding the node's daemons and jobs, a power switch, and a
// synthetic physical-resource usage generator for the detectors to sample.
//
// The fault-diagnosis protocol of the paper (§5.1) distinguishes a dead
// daemon process from a dead node by probing the node's OS agent: an agent
// that answers but reports the daemon gone indicates a process fault; an
// agent silent on every NIC indicates a node fault. The agent implemented
// here is that probe target.
package simhost

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/types"
)

// Fabric is the message substrate a host is attached to: the simulated
// multi-NIC network (*simnet.Network) or the real-socket transport
// (*wire.Transport). The host registers its agent and every hosted
// process on it, and reports its power state so the fabric stops
// carrying traffic for a dead node.
//
// Implementations must deliver handler callbacks on the same logical
// thread that drives the host's clock callbacks: the simulator's event
// goroutine, or the per-node serialisation loop of the wire transport.
// Host and Process code is written single-threaded and holds no locks.
type Fabric interface {
	// Register binds a handler to an address; re-registering replaces
	// the handler (a restarted daemon reclaims its address).
	Register(addr types.Addr, h func(msg types.Message))
	// Unregister removes the binding for addr, if any.
	Unregister(addr types.Addr)
	// Send transmits a message with datagram semantics: local failures
	// return an error, in-flight losses are silent.
	Send(msg types.Message) error
	// SetNodeUp powers a node's network presence on or off.
	SetNodeUp(id types.NodeID, up bool)
}

// Process is a daemon or job hosted on a node. Implementations are
// event-driven: Start registers timers and the host routes incoming
// messages to Receive. OnStop is called exactly once when the process is
// killed, exits, or its node powers off; handle timer callbacks are
// suppressed automatically, so OnStop only needs to release external
// resources.
type Process interface {
	Service() string
	Start(h *Handle)
	Receive(msg types.Message)
	OnStop()
}

// ExitCause says why a process left the process table.
type ExitCause int

const (
	ExitKilled ExitCause = iota
	ExitNormal
	ExitPowerOff
)

func (c ExitCause) String() string {
	switch c {
	case ExitKilled:
		return "killed"
	case ExitNormal:
		return "exited"
	case ExitPowerOff:
		return "poweroff"
	default:
		return "?"
	}
}

// ProcEvent notifies local watchers about process lifecycle changes.
// Watchers are local by construction (they run on the same host), modelling
// the near-zero-cost process-table supervision the paper's Table 3 shows as
// a 12-microsecond diagnosing time.
type ProcEvent struct {
	Node    types.NodeID
	Service string
	PID     types.ProcID
	Started bool
	Cause   ExitCause // valid when Started is false
}

// Factory builds a process for remote spawning (GSD migration, PPM job
// loading). The spec travels in the spawn request.
type Factory func(spec any) Process

// Command is a host-local command run by RunCommand (the leaves of the
// kernel's parallel command calls).
type Command func(args []string) (string, error)

// Costs calibrates the host's latency model. The defaults reproduce the
// shape of the paper's Tables 1-3: daemon respawn dominated by exec cost,
// probe handling well under a second, node-fault diagnosis dominated by the
// prober's timeout (configured on the monitoring side, not here).
type Costs struct {
	// ExecLatency is the fork+exec+init cost per service name. Job
	// processes (service names beginning "job/") use the "job" entry.
	ExecLatency map[string]time.Duration
	// DefaultExec applies to services missing from ExecLatency.
	DefaultExec time.Duration
	// AgentProbeDelay is how long the agent takes to service a probe
	// (inspecting its process table and answering).
	AgentProbeDelay time.Duration
	// AgentExecDelay is the agent-side cost of dispatching an exec/spawn
	// or kill request before the operation itself starts.
	AgentExecDelay time.Duration
}

// DefaultCosts returns the calibration used by the paper-table experiments.
func DefaultCosts() Costs {
	return Costs{
		ExecLatency: map[string]time.Duration{
			types.SvcWD:   80 * time.Millisecond,
			types.SvcGSD:  2 * time.Second,
			types.SvcES:   90 * time.Millisecond,
			types.SvcDB:   120 * time.Millisecond,
			types.SvcCkpt: 100 * time.Millisecond,
			"job":         40 * time.Millisecond,
		},
		DefaultExec:     100 * time.Millisecond,
		AgentProbeDelay: 280 * time.Millisecond,
		AgentExecDelay:  5 * time.Millisecond,
	}
}

func (c Costs) execFor(service string) time.Duration {
	key := service
	if len(key) > 4 && key[:4] == "job/" {
		key = "job"
	}
	if d, ok := c.ExecLatency[key]; ok {
		return d
	}
	return c.DefaultExec
}

var pidCounter atomic.Int64

func nextPID() types.ProcID { return types.ProcID(pidCounter.Add(1)) }

type procEntry struct {
	pid      types.ProcID
	proc     Process
	handle   *Handle
	starting bool
}

// Host is one cluster node: a process table and OS agent attached to a
// fabric. Under the simulator the fabric is a *simnet.Network on virtual
// time; under the phoenix-node daemon it is a *wire.Transport on the
// wall clock — the hosted daemons cannot tell the difference.
type Host struct {
	id    types.NodeID
	net   Fabric
	clk   clock.Clock
	rng   *rand.Rand
	costs Costs

	up         bool
	os         string
	procs      map[string]*procEntry
	factories  map[string]Factory
	commands   map[string]Command
	watchers   map[int]func(ProcEvent)
	watcherSeq int
	usage      UsageModel
	bootedAt   time.Time
}

// New creates a powered-on host and registers its OS agent on the fabric.
func New(id types.NodeID, net Fabric, clk clock.Clock, rng *rand.Rand, costs Costs) *Host {
	h := &Host{
		id:        id,
		net:       net,
		clk:       clk,
		rng:       rng,
		costs:     costs,
		up:        true,
		os:        "Linux/x86_64",
		procs:     make(map[string]*procEntry),
		factories: make(map[string]Factory),
		commands:  make(map[string]Command),
		watchers:  make(map[int]func(ProcEvent)),
		usage:     NewRandomWalkUsage(id, rng),
		bootedAt:  clk.Now(),
	}
	h.registerAgent()
	return h
}

// ID returns the host's node ID.
func (h *Host) ID() types.NodeID { return h.id }

// Up reports whether the node is powered on.
func (h *Host) Up() bool { return h.up }

// OS reports the node's host operating system / architecture label. The
// paper's lowest layer is "heterogeneous resource": clusters mix OSes and
// architectures, and the kernel's configuration service inventories them
// through the agents.
func (h *Host) OS() string { return h.os }

// SetOS overrides the node's OS/architecture label (heterogeneous
// clusters).
func (h *Host) SetOS(os string) { h.os = os }

// Clock returns the host's time source.
func (h *Host) Clock() clock.Clock { return h.clk }

// Rand returns the host's deterministic random source.
func (h *Host) Rand() *rand.Rand { return h.rng }

// SetUsageModel replaces the synthetic resource generator.
func (h *Host) SetUsageModel(u UsageModel) { h.usage = u }

// Usage samples the node's current physical-resource utilisation. The
// CPU figure is raised by running job processes, so the application-state
// and physical-resource detectors see consistent load.
func (h *Host) Usage() types.ResourceStats {
	s := h.usage.Sample(h.clk.Now())
	s.Node = h.id
	jobs := 0
	for svc := range h.procs {
		if len(svc) > 4 && svc[:4] == "job/" {
			jobs++
		}
	}
	s.CPUPct += float64(jobs) * 12
	if s.CPUPct > 100 {
		s.CPUPct = 100
	}
	return s
}

// Procs lists the services currently in the process table (running or
// starting).
func (h *Host) Procs() []string {
	out := make([]string, 0, len(h.procs))
	for svc := range h.procs {
		out = append(out, svc)
	}
	return out
}

// Present reports whether a service occupies a process-table slot, whether
// running or still paying its exec latency. Supervisors use this to avoid
// double-spawning a service that is already starting.
func (h *Host) Present(service string) bool {
	_, ok := h.procs[service]
	return ok
}

// Running reports whether a service is present and past its exec latency.
func (h *Host) Running(service string) bool {
	e, ok := h.procs[service]
	return ok && !e.starting
}

// PID returns the process ID of a hosted service, or 0.
func (h *Host) PID(service string) types.ProcID {
	if e, ok := h.procs[service]; ok {
		return e.pid
	}
	return 0
}

// Proc returns the running process behind a service slot, or nil while
// the service is absent or still paying its exec latency. Status
// providers (the opshttp snapshot) type-assert the result to read
// service-specific state; like every Host method it must be called from
// the substrate's serialisation context.
func (h *Host) Proc(service string) Process {
	if e, ok := h.procs[service]; ok && !e.starting {
		return e.proc
	}
	return nil
}

// Spawned returns the process behind a service slot, running or still
// paying its exec latency, or nil while the slot is empty. A restarted
// daemon uses it to re-adopt the processes it manages; unlike Proc's, the
// result may not have started yet.
func (h *Host) Spawned(service string) Process {
	if e, ok := h.procs[service]; ok {
		return e.proc
	}
	return nil
}

// Watch registers a local process-lifecycle watcher (used by the
// detectors, PPM and the PBS mom to track jobs). The returned function
// cancels the watch; daemons cancel from OnStop so a dead daemon stops
// observing.
func (h *Host) Watch(fn func(ProcEvent)) (cancel func()) {
	h.watcherSeq++
	id := h.watcherSeq
	h.watchers[id] = fn
	return func() { delete(h.watchers, id) }
}

func (h *Host) notify(ev ProcEvent) {
	ids := make([]int, 0, len(h.watchers))
	for id := range h.watchers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if w, ok := h.watchers[id]; ok {
			w(ev)
		}
	}
}

// RegisterFactory makes a service remotely spawnable on this host.
func (h *Host) RegisterFactory(service string, f Factory) { h.factories[service] = f }

// RegisterCommand installs a named command for RunCommand.
func (h *Host) RegisterCommand(name string, c Command) { h.commands[name] = c }

// RunCommand invokes a registered command on this host: PPM runs its own
// node's share of a parallel command (ppm.PExecReq) through it. An
// unregistered name is an error.
func (h *Host) RunCommand(name string, args []string) (string, error) {
	c, ok := h.commands[name]
	if !ok {
		return "", fmt.Errorf("simhost: unknown command %q on %v", name, h.id)
	}
	return c(args)
}

// Spawn starts a process on this host, paying the service's exec latency
// before the process begins running. It returns the assigned PID.
func (h *Host) Spawn(p Process) (types.ProcID, error) {
	if !h.up {
		return 0, fmt.Errorf("simhost: %v is powered off", h.id)
	}
	svc := p.Service()
	if _, exists := h.procs[svc]; exists {
		return 0, fmt.Errorf("simhost: %s already present on %v", svc, h.id)
	}
	pid := nextPID()
	entry := &procEntry{pid: pid, proc: p, starting: true}
	h.procs[svc] = entry
	h.clk.AfterFunc(h.costs.execFor(svc), func() {
		// The node may have died or the spawn been killed meanwhile.
		cur, ok := h.procs[svc]
		if !h.up || !ok || cur.pid != pid {
			return
		}
		cur.starting = false
		handle := newHandle(h, svc, pid)
		cur.handle = handle
		h.net.Register(types.Addr{Node: h.id, Service: svc}, func(m types.Message) {
			if e, ok := h.procs[svc]; ok && e.pid == pid && !e.starting {
				p.Receive(m)
			}
		})
		p.Start(handle)
		h.notify(ProcEvent{Node: h.id, Service: svc, PID: pid, Started: true})
	})
	return pid, nil
}

// SpawnService builds a process from a registered factory and spawns it.
// The duplicate check runs before the factory so a redundant spawn request
// constructs nothing.
func (h *Host) SpawnService(service string, spec any) (types.ProcID, error) {
	if !h.up {
		return 0, fmt.Errorf("simhost: %v is powered off", h.id)
	}
	if _, exists := h.procs[service]; exists {
		return 0, fmt.Errorf("simhost: %s already present on %v", service, h.id)
	}
	f, ok := h.factories[service]
	if !ok {
		// A family of services ("job/<id>") shares the factory
		// registered under its first path segment.
		if i := strings.IndexByte(service, '/'); i > 0 {
			f, ok = h.factories[service[:i]]
		}
		if !ok {
			return 0, fmt.Errorf("simhost: no factory for %s on %v", service, h.id)
		}
	}
	p := f(spec)
	if p == nil {
		return 0, fmt.Errorf("simhost: factory for %s rejected spec", service)
	}
	if p.Service() != service {
		return 0, fmt.Errorf("simhost: factory for %s produced %s", service, p.Service())
	}
	return h.Spawn(p)
}

// Kill removes a process immediately (SIGKILL semantics): no exec latency,
// no goodbye messages, timer callbacks suppressed, watchers notified.
func (h *Host) Kill(service string) error {
	e, ok := h.procs[service]
	if !ok {
		return fmt.Errorf("simhost: %s not running on %v", service, h.id)
	}
	h.reap(service, e, ExitKilled)
	return nil
}

func (h *Host) reap(service string, e *procEntry, cause ExitCause) {
	delete(h.procs, service)
	h.net.Unregister(types.Addr{Node: h.id, Service: service})
	if e.handle != nil {
		e.handle.shutdown()
	}
	if !e.starting {
		e.proc.OnStop()
	}
	h.notify(ProcEvent{Node: h.id, Service: service, PID: e.pid, Cause: cause})
}

// exit handles a process terminating itself via Handle.Exit.
func (h *Host) exit(service string, pid types.ProcID) {
	e, ok := h.procs[service]
	if !ok || e.pid != pid {
		return
	}
	h.reap(service, e, ExitNormal)
}

// PowerOff kills the node: every process dies without notification (the
// watchers die with the node), the agent stops answering, and the fabric
// marks the node down.
func (h *Host) PowerOff() {
	if !h.up {
		return
	}
	h.up = false
	for svc, e := range h.procs {
		delete(h.procs, svc)
		h.net.Unregister(types.Addr{Node: h.id, Service: svc})
		if e.handle != nil {
			e.handle.shutdown()
		}
		// No OnStop, no watcher notification: power loss is silent.
	}
	h.net.Unregister(types.Addr{Node: h.id, Service: types.SvcAgent})
	h.net.SetNodeUp(h.id, false)
}

// PowerOn boots the node cold: the agent comes back, the process table is
// empty, and daemons must be respawned by recovery machinery.
func (h *Host) PowerOn() {
	if h.up {
		return
	}
	h.up = true
	h.bootedAt = h.clk.Now()
	h.net.SetNodeUp(h.id, true)
	h.registerAgent()
}

// BootedAt reports when the node last powered on.
func (h *Host) BootedAt() time.Time { return h.bootedAt }

// Send transmits a message from an arbitrary host-level origin (the agent).
func (h *Host) send(to types.Addr, nic int, typ string, payload any) {
	_ = h.net.Send(types.Message{
		From:    types.Addr{Node: h.id, Service: types.SvcAgent},
		To:      to,
		NIC:     nic,
		Type:    typ,
		Payload: payload,
	})
}

func init() {
	codec.Register(112, ProbeReq{})
	codec.Register(113, ProbeAck{})
	codec.Register(114, SpawnReq{})
	codec.Register(115, SpawnAck{})
}
