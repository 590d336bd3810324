// Package noded bootstraps one Phoenix node as a standalone runtime: a
// wire transport bound to the node's address-book endpoints, a host whose
// timers run on the wall clock, and the node's slice of the kernel booted
// through core.BootNode. It is the library behind cmd/phoenix-node — one
// OS process per cluster node — and behind in-process multi-node tests,
// which run several Nodes on ephemeral loopback ports.
package noded

import (
	"fmt"
	"log"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bulletin"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/gsd"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/opshttp"
	"repro/internal/ppm"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/watchd"
	"repro/internal/wire"
)

// settings collects everything Start can be configured with.
type settings struct {
	params     config.Params
	costs      simhost.Costs
	seed       int64
	book       *wire.Book
	transport  *wire.Transport
	reg        *metrics.Registry
	wireOpts   []wire.Option
	adminAddr  string
	adminPprof bool
	stateDir   string
	pwsSpec    *pws.Spec
}

// Option configures Start.
type Option func(*settings)

// WithParams sets the kernel timing constants; the default is
// config.DefaultParams.
func WithParams(p config.Params) Option { return func(s *settings) { s.params = p } }

// WithCosts models agent/exec latencies; the default is
// simhost.DefaultCosts.
func WithCosts(c simhost.Costs) Option { return func(s *settings) { s.costs = c } }

// WithSeed fixes the node's random stream; the default derives one from
// the node ID.
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithBook maps every (node, plane) to its UDP endpoint. Required unless
// WithTransport is used.
func WithBook(b *wire.Book) Option { return func(s *settings) { s.book = b } }

// WithTransport supplies a pre-bound transport — the ephemeral-port path,
// where tests bind first and assemble the Book afterwards. The transport
// must already have its book attached. Mutually exclusive with WithBook
// and WithWireOptions.
func WithTransport(tr *wire.Transport) Option { return func(s *settings) { s.transport = tr } }

// WithMetrics supplies the registry that receives transport counters; the
// default is a private one.
func WithMetrics(reg *metrics.Registry) Option { return func(s *settings) { s.reg = reg } }

// WithWireOptions forwards options (retransmission policy, MTU, window,
// fault handler, …) to the transport Start constructs. Later options win,
// so a custom wire.WithPeerFaultHandler overrides the default logger.
func WithWireOptions(opts ...wire.Option) Option {
	return func(s *settings) { s.wireOpts = append(s.wireOpts, opts...) }
}

// WithAdmin starts the node's operations HTTP server (package opshttp:
// /metrics, /healthz, /readyz, /statusz) on addr — "host:port", with
// port 0 binding ephemerally; the bound address is reported by
// Node.AdminAddr. Without this option no admin server runs.
func WithAdmin(addr string) Option { return func(s *settings) { s.adminAddr = addr } }

// WithAdminPprof additionally mounts net/http/pprof on the admin server.
// It only takes effect together with WithAdmin.
func WithAdminPprof() Option { return func(s *settings) { s.adminPprof = true } }

// WithStateDir gives the node a durable state directory: every checkpoint
// record the node's checkpoint instances accept is mirrored there with
// atomic fsynced writes, and a marker file records the node identity and
// boot count. When Start finds an existing marker, the node boots in
// rejoin mode: it withholds its partition server daemons (a migrated GSD
// may own the partition now — a second instance would split the
// meta-group) and reports Status.Rejoining until a current GSD announces
// itself to the node's watch daemon, which /readyz surfaces as a 503
// "rejoining". A partition server that hears no announce within the
// rejoin grace spawns its GSD in recovery mode anyway — the
// whole-cluster-restart path, where no surviving GSD exists to re-seed
// anyone.
func WithStateDir(dir string) Option { return func(s *settings) { s.stateDir = dir } }

// WithPWS makes the node's partition host the PWS scheduler: the factory
// is registered on every node (the GSD can migrate the scheduler with
// the partition), the partition's GSD supervises it, and the configured
// server node spawns the initial instance. The spec's RPC options are
// filled with the node's breakers and metrics.
func WithPWS(spec pws.Spec) Option { return func(s *settings) { s.pwsSpec = &spec } }

// Node is one running phoenix node.
type Node struct {
	tr       *wire.Transport
	loop     *wire.Loop
	host     *simhost.Host
	kernel   *core.Kernel
	ni       config.NodeInfo
	admin    *opshttp.Server
	breakers *rpc.Breakers
	started  time.Time

	// Crash-restart rejoin state. rejoinDone is loop-confined; the
	// deadline and fallback timer are set once before the node runs.
	rejoin         bool
	rejoinDeadline time.Time
	rejoinDone     bool
	fallback       *time.Timer
}

// Start binds the transport (unless one was supplied), builds the host and
// boots the node's kernel daemons. On return heartbeats are flowing and
// the node is answering its agent.
func Start(node types.NodeID, topo *config.Topology, opts ...Option) (*Node, error) {
	if topo == nil {
		return nil, core.ErrNoTopology
	}
	s := settings{params: config.DefaultParams(), costs: simhost.DefaultCosts(), seed: 1 + int64(node)}
	for _, opt := range opts {
		opt(&s)
	}

	rejoin := false
	ckptDir := ""
	var incs watchd.IncarnationStore
	if s.stateDir != "" {
		var err error
		if rejoin, err = openStateDir(s.stateDir, node); err != nil {
			return nil, err
		}
		ckptDir = filepath.Join(s.stateDir, "ckpt")
		incs = newIncStore(s.stateDir)
	}

	// Node-wide circuit breakers, shared by every kernel client on this
	// node and fed by both RPC outcomes and wire-level peer faults. The
	// cooldown tracks the RPC budget so a half-open trial fits one call.
	breakers := rpc.NewBreakers(rpc.BreakerConfig{Cooldown: s.params.RPCTimeout}, time.Now)

	tr := s.transport
	if tr == nil {
		if s.book == nil {
			return nil, fmt.Errorf("noded: need WithBook or WithTransport")
		}
		if s.book.Planes() != topo.NICs {
			return nil, fmt.Errorf("noded: book has %d planes, topology has %d NICs",
				s.book.Planes(), topo.NICs)
		}
		// Default fault surfacing: a lane that exhausts its retransmission
		// budget opens the peer's node-wide breaker (so resilient calls
		// fail over before their first timeout) and is logged; the
		// kernel's own diagnosis confirms and recovers the fault.
		wopts := append([]wire.Option{
			wire.WithMetrics(s.reg),
			wire.WithPeerFaultHandler(func(peer types.NodeID, plane int, err error) {
				breakers.ReportPeerFault(peer)
				log.Printf("noded: %v: transport fault: %v", node, err)
			}),
		}, s.wireOpts...)
		var err error
		tr, err = wire.New(node, s.book, wopts...)
		if err != nil {
			return nil, err
		}
	} else {
		if len(s.wireOpts) > 0 || s.book != nil {
			return nil, fmt.Errorf("noded: WithTransport excludes WithBook and WithWireOptions")
		}
		if tr.Node() != node {
			return nil, fmt.Errorf("noded: transport is bound as %v, not %v", tr.Node(), node)
		}
		if tr.Planes() != topo.NICs {
			return nil, fmt.Errorf("noded: transport has %d planes, topology has %d NICs",
				tr.Planes(), topo.NICs)
		}
	}

	n := &Node{tr: tr, loop: tr.Loop(), breakers: breakers, started: time.Now()}
	n.ni, _ = topo.Node(node)
	clk := wire.NewLoopClock(n.loop, clock.Real{})
	rng := rand.New(rand.NewSource(s.seed))
	var bootErr error
	// Host construction and kernel boot run inside the loop: spawning
	// daemons arms wall-clock timers and registers handlers, and inbound
	// datagrams may start dispatching the moment the agent registers.
	n.loop.Run(func() {
		n.host = simhost.New(node, tr, clk, rng, s.costs)
		bootOpts := core.Options{
			Topo: topo, Params: s.params,
			CheckpointDir: ckptDir, Rejoin: rejoin,
			IncarnationStore: incs,
			RPC:              rpc.Options{Breakers: breakers, Metrics: tr.Metrics()},
		}
		if s.pwsSpec != nil {
			spec := *s.pwsSpec
			spec.RPC = bootOpts.RPC
			bootOpts.ExtraServices = map[types.PartitionID][]string{
				spec.Partition: {types.SvcPWS},
			}
			bootOpts.PWSFactory = pws.Factory(spec)
			s.pwsSpec = &spec
		}
		n.kernel, bootErr = core.BootNode(tr, n.host, bootOpts)
		if bootErr != nil {
			return
		}
		// The configured server of the scheduler's partition spawns the
		// initial instance (the GSD supervises it from there). A rejoining
		// node withholds it like the other server daemons: the scheduler
		// may run on a backup now, restored from its checkpoint.
		if s.pwsSpec != nil && !rejoin {
			if part, ok := topo.Partition(s.pwsSpec.Partition); ok && part.Server == node {
				_, bootErr = n.host.Spawn(pws.New(*s.pwsSpec))
			}
		}
	})
	if bootErr != nil {
		tr.Close()
		return nil, bootErr
	}
	if rejoin {
		n.rejoin = true
		grace := rejoinGrace(s.params)
		n.rejoinDeadline = n.started.Add(grace)
		if part, ok := topo.PartitionOf(node); ok && part.Server == node {
			n.fallback = time.AfterFunc(grace, func() { n.fallbackGSD(part.ID) })
		}
	}
	if s.adminAddr != "" {
		admin, err := opshttp.New(opshttp.Config{
			Addr:     s.adminAddr,
			Status:   n.Status,
			Snapshot: tr.Metrics().Snapshot,
			Pprof:    s.adminPprof,
		})
		if err != nil {
			n.Stop()
			return nil, err
		}
		n.admin = admin
	}
	return n, nil
}

// rejoinGrace is how long a rejoining node waits for a surviving GSD to
// announce itself before assuming nobody is coming: long enough for the
// meta-group to diagnose the old member death and complete a takeover
// (detection, probe, candidate walk, spawn), so the fallback only fires
// when the whole cluster restarted.
func rejoinGrace(p config.Params) time.Duration {
	return 3*p.MetaHeartbeatInterval + p.MetaProbeTimeout + 2*p.RPCTimeout
}

// fallbackGSD covers the whole-cluster-restart corner: every node is
// rejoining, so no surviving GSD exists to re-admit or re-seed anyone.
// After the rejoin grace, the partition's configured server spawns its
// GSD in recovery mode (restore partition state from the durable
// checkpoints, announce-join the meta-group) unless one already announced
// itself. A fallback racing a late migration is harmless: the meta-group
// supersession guard stands the losing instance down.
func (n *Node) fallbackGSD(part types.PartitionID) {
	n.loop.Run(func() {
		if n.host == nil || !n.host.Up() || n.host.Present(types.SvcGSD) {
			return
		}
		if wd, ok := n.host.Proc(types.SvcWD).(*watchd.WD); ok && wd.Announces() > 0 {
			return // a live GSD owns the partition; nothing to seed
		}
		log.Printf("noded: %v: no GSD announce within rejoin grace, seeding partition %v",
			n.host.ID(), part)
		if _, err := n.host.SpawnService(types.SvcGSD, gsd.SpawnSpec{Partition: part, Migrated: true}); err != nil {
			log.Printf("noded: %v: fallback GSD spawn: %v", n.host.ID(), err)
		}
	})
}

// AdminAddr reports the bound address of the node's operations HTTP
// server, or "" when WithAdmin was not used.
func (n *Node) AdminAddr() string {
	if n.admin == nil {
		return ""
	}
	return n.admin.Addr()
}

// Status collects the node's operational snapshot — the single source of
// truth behind /statusz, /metrics' phoenix_* gauges and phoenix-node's
// status line. Safe from any goroutine: kernel state is read inside the
// node's loop, transport counters from their own locks.
func (n *Node) Status() opshttp.Status {
	st := opshttp.Status{
		Node:            int(n.tr.Node()),
		Partition:       int(n.ni.Partition),
		Role:            n.ni.Role.String(),
		GSDRole:         opshttp.GSDNone,
		LeaderPartition: -1,
		LeaderNode:      -1,
		BulletinRows:    -1,
		UptimeSeconds:   time.Since(n.started).Seconds(),
	}
	n.loop.Run(func() {
		host, kernel := n.host, n.kernel
		if host == nil || kernel == nil {
			return
		}
		st.Booted = host.Up()
		st.Procs = host.Procs()
		sort.Strings(st.Procs)
		// The process table names the GSD actually running here (the
		// kernel's per-partition tracking can go stale across
		// migrations), and its partition may differ from the node's own
		// after a takeover.
		if g, ok := host.Proc(types.SvcGSD).(*gsd.Daemon); ok && g.Member() != nil {
			v := g.Member().View()
			st.MetaAlive, st.MetaSize = v.AliveCount(), len(v.Order)
			switch {
			case v.Leader == g.Partition():
				st.GSDRole = opshttp.GSDLeader
			case v.Princess == g.Partition():
				st.GSDRole = opshttp.GSDPrincess
			default:
				st.GSDRole = opshttp.GSDMember
			}
			if m, ok := v.Members[v.Leader]; ok && m.Alive {
				st.LeaderPartition, st.LeaderNode = int(v.Leader), int(m.Node)
			}
			if mon := g.Monitor(); mon != nil {
				ms := mon.Stats()
				d := &opshttp.Detect{
					Suspects: ms.Suspects, Refutations: ms.Refutations,
					IndirectAcks: ms.IndirectAcks, FailVerdicts: ms.FailVerdicts,
					FenceEpoch: g.Epoch(), Takeovers: g.Takeovers(),
				}
				for _, ni := range mon.Snapshot() {
					switch ni.Status {
					case heartbeat.StatusSuspect:
						d.Suspect = append(d.Suspect, int(ni.Node))
					case heartbeat.StatusDown:
						d.Failed = append(d.Failed, int(ni.Node))
					}
					if ni.Quarantined {
						d.Quarantined = append(d.Quarantined, int(ni.Node))
					}
					if ni.Suspicion > d.MaxSuspicion {
						d.MaxSuspicion = ni.Suspicion
					}
					if ni.Flap > d.MaxFlap {
						d.MaxFlap = ni.Flap
					}
				}
				st.Detect = d
			}
		}
		if db, ok := host.Proc(types.SvcDB).(*bulletin.Service); ok {
			st.BulletinRows = db.Entries()
			sh := db.Stats()
			st.Shard = &sh
		}
		if gsp, ok := host.Proc(types.SvcGossip).(*gossip.Service); ok {
			gs := gsp.Stats()
			st.Gossip = &gs
		}
		// The node's utilisation signal: the same CPU/runqueue fold the
		// detector exports to the bulletin, plus the local drain mark.
		usage := host.Usage()
		if p, ok := host.Proc(types.SvcPPM).(*ppm.Daemon); ok {
			usage.RunQ = p.Jobs()
			st.Draining = p.Draining()
		}
		st.Util = usage.Util()
		if sched, ok := host.Proc(types.SvcPWS).(*pws.Scheduler); ok {
			ov := sched.Overview()
			ps := &opshttp.PWSStatus{
				Partition: st.Partition, Shed: ov.Shed, Util: ov.Util,
				ShedTotal: ov.ShedTotal, AdmissionRejects: ov.AdmissionRejects,
				Preempted: ov.Preempted, LeasedNodes: ov.LeasedNodes,
				Failed: ov.Failed,
			}
			for i, name := range pws.ShedNames {
				if name == ov.Shed {
					ps.ShedLevel = i
				}
			}
			for _, pool := range ov.Pools {
				ps.Pools = append(ps.Pools, opshttp.PoolStatus{
					Name: pool.Name, Type: pool.Type, Nodes: pool.Nodes,
					Free: pool.Free, Queued: pool.Queued, Running: pool.Running,
					Leased: pool.Leased, Draining: pool.Draining,
				})
			}
			st.PWS = ps
		}
		// Rejoin gate: a crash-restarted node is not ready until a current
		// GSD has announced itself to its watch daemon (re-admission), a
		// GSD running here knows the leader (this node won the takeover or
		// seeded the partition itself), or the grace expired with nobody
		// objecting — the fast-restart case, where the node came back
		// before anyone diagnosed it and heartbeats simply resumed.
		if n.rejoin && !n.rejoinDone {
			readmitted := st.GSDRole != opshttp.GSDNone && st.LeaderPartition >= 0
			if wd, ok := host.Proc(types.SvcWD).(*watchd.WD); ok && wd.Announces() > 0 {
				readmitted = true
			}
			if readmitted || time.Now().After(n.rejoinDeadline) {
				n.rejoinDone = true
			} else {
				st.Rejoining = true
			}
		}
	})
	if book := n.tr.Book(); book != nil {
		st.Peers = len(book.Nodes())
	}
	st.Wire = n.tr.Stats()
	st.CodecSizeErrors = codec.SizeErrors()
	st.RPC = rpc.ReadStats(n.tr.Metrics())
	st.Breakers = n.breakers.Snapshot()
	st.BreakersOpen = n.breakers.OpenCount()
	st.Ready, st.ReadyReason = readiness(st)
	return st
}

// readiness derives /readyz from a snapshot: the kernel slice must be
// booted, and the node must be serving its cluster role — a GSD host
// must know a live meta-group leader, any other node must have its watch
// daemon heartbeating.
func readiness(st opshttp.Status) (bool, string) {
	if !st.Booted {
		return false, "kernel not booted"
	}
	if st.Rejoining {
		return false, "rejoining"
	}
	if st.Draining {
		return false, "draining"
	}
	if st.GSDRole != opshttp.GSDNone {
		if st.LeaderPartition < 0 {
			return false, "meta-group leader unknown"
		}
		return true, ""
	}
	for _, p := range st.Procs {
		if p == types.SvcWD {
			return true, ""
		}
	}
	return false, "watch daemon not running"
}

// Do runs f inside the node's serialisation loop — the only safe way for
// outside goroutines (main, signal handlers, tests) to touch the host or
// kernel of a running node.
func (n *Node) Do(f func()) { n.loop.Run(f) }

// Host returns the node's host. Touch it only via Do.
func (n *Node) Host() *simhost.Host { return n.host }

// Kernel returns the node's kernel slice. Touch it only via Do.
func (n *Node) Kernel() *core.Kernel { return n.kernel }

// Transport returns the node's wire transport (safe from any goroutine).
func (n *Node) Transport() *wire.Transport { return n.tr }

// Breakers returns the node-wide circuit breaker set (safe from any
// goroutine — Breakers carries its own lock).
func (n *Node) Breakers() *rpc.Breakers { return n.breakers }

// Stop powers the node off — every daemon is killed and its timers
// cancelled — closes the admin server, and closes the sockets. A stopped
// node is what the rest of the cluster sees as a node fault.
func (n *Node) Stop() {
	if n.fallback != nil {
		n.fallback.Stop()
	}
	if n.admin != nil {
		_ = n.admin.Close()
	}
	n.loop.Run(func() {
		if n.host != nil {
			n.host.PowerOff()
		}
	})
	n.tr.Close()
}
