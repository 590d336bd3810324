// Package core composes the Phoenix cluster operating system kernel: given
// a cluster substrate (network + hosts) and a topology, it registers the
// per-node process factories, boots every kernel daemon in its place —
// configuration and security services on the master node; GSD, event
// service, data bulletin and checkpoint instances on each partition server;
// watch daemon, detectors and PPM on every node — and exposes the handles
// user environments build on (paper §3, Figure 2).
package core

import (
	"errors"
	"fmt"

	"repro/internal/bulletin"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/detector"
	"repro/internal/events"
	"repro/internal/federation"
	"repro/internal/gossip"
	"repro/internal/gsd"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/security"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/watchd"
)

// Sentinel errors of kernel composition. Callers assert with errors.Is;
// the constructors always return them wrapped with context.
var (
	// ErrNoTopology marks a boot attempt with no cluster topology.
	ErrNoTopology = errors.New("core: no topology")

	// ErrNoHost marks a boot attempt whose topology names a node that has
	// no host in the substrate (or a host that is not in the topology).
	ErrNoHost = errors.New("core: no host")
)

// Kernel is a booted Phoenix kernel. Under the simulator one Kernel spans
// the whole cluster; under the phoenix-node daemon each OS process holds a
// Kernel covering only its own host (Hosts then has a single entry).
type Kernel struct {
	Topo      *config.Topology
	Params    config.Params
	Net       simhost.Fabric
	Hosts     map[types.NodeID]*simhost.Host
	Config    *config.Service
	Security  *security.Service
	Authority *security.Authority

	gsds map[types.PartitionID]*gsd.Daemon
}

// Options configures Boot.
type Options struct {
	Topo   *config.Topology
	Params config.Params
	// Authority is the security authority; nil builds one with a default
	// key and no users (services then run unauthenticated, as the
	// scientific-computing experiments do).
	Authority *security.Authority
	// EnforceAuth makes the PPM daemons require tokens on job operations.
	EnforceAuth bool
	// ExtraServices lists additional GSD-supervised services per
	// partition (e.g. the PWS scheduler). The caller registers matching
	// factories on the partition's server and backup hosts and spawns the
	// initial instances itself.
	ExtraServices map[types.PartitionID][]string
	// CheckpointDir makes every checkpoint-service instance this kernel
	// spawns (boot, recovery and migration paths alike) persist its
	// records under the directory with atomic fsynced writes, and reload
	// them on start — the durability layer behind phoenix-node -state-dir.
	CheckpointDir string
	// RPC carries the resilient-call options (circuit breakers, metrics,
	// in-flight bound) shared by every kernel client this kernel spawns —
	// GSD checkpoint clients and daemon-internal callers alike. Budgets
	// stay per-client; breakers and counters are node-wide.
	RPC rpc.Options
	// IncarnationStore persists the local watch daemon's incarnation
	// number across restarts (phoenix-node backs it with the state dir).
	// Only meaningful on the BootNode path, where the kernel manages a
	// single host; simulated multi-host kernels leave it nil.
	IncarnationStore watchd.IncarnationStore
	// PWSFactory, when non-nil, is registered as the types.SvcPWS process
	// factory on every host, so the GSD can restart or migrate the PWS
	// scheduler anywhere it itself can go. core cannot depend on the pws
	// package (pws builds on the kernel), so the caller supplies the
	// factory — typically pws.Factory(spec).
	PWSFactory func(spec any) simhost.Process
	// Rejoin marks a BootNode of a host that crashed and restarted: the
	// partition server daemons (GSD + es/db/ckpt) are NOT spawned locally
	// even if this host is the partition's configured server, because the
	// partition may have migrated to a backup while this node was dead and
	// a second GSD would split the meta-group. The surviving GSDs re-admit
	// the node (member-recover) or re-seed a GSD here through the normal
	// takeover machinery; noded keeps a fallback for the
	// whole-cluster-restart case. Master and per-node services still spawn.
	Rejoin bool
}

// Prepare wires a kernel without booting it: it registers the per-node
// process factories and host commands, and spawns only the master-node
// services (configuration + security, which have no factories). The
// system construction tool boots the remaining daemons through the agents
// (package construct); Boot does it directly.
func Prepare(net simhost.Fabric, hosts map[types.NodeID]*simhost.Host, opts Options) (*Kernel, error) {
	k, err := newKernel(net, hosts, opts)
	if err != nil {
		return nil, err
	}
	// Factories: every node can host every daemon kind, so recovery can
	// respawn or migrate anything anywhere.
	for _, ni := range k.Topo.Nodes {
		host, ok := hosts[ni.ID]
		if !ok {
			return nil, fmt.Errorf("%w for %v", ErrNoHost, ni.ID)
		}
		registerFactories(host, k, opts)
		registerCommands(host)
	}
	master, ok := hosts[k.Topo.Master]
	if !ok {
		return nil, fmt.Errorf("%w for master %v", ErrNoHost, k.Topo.Master)
	}
	if err := k.spawnMasterServices(master); err != nil {
		return nil, err
	}
	return k, nil
}

func newKernel(net simhost.Fabric, hosts map[types.NodeID]*simhost.Host, opts Options) (*Kernel, error) {
	if opts.Topo == nil {
		return nil, ErrNoTopology
	}
	auth := opts.Authority
	if auth == nil {
		auth = security.NewAuthority([]byte("phoenix-default-key"))
	}
	return &Kernel{
		Topo: opts.Topo, Params: opts.Params, Net: net, Hosts: hosts,
		Authority: auth,
		gsds:      make(map[types.PartitionID]*gsd.Daemon),
	}, nil
}

// spawnMasterServices boots the configuration and security services on the
// master node's host.
func (k *Kernel) spawnMasterServices(master *simhost.Host) error {
	k.Config = config.NewService(k.Topo, k.Params, nil)
	if _, err := master.Spawn(k.Config); err != nil {
		return fmt.Errorf("core: spawn config service: %w", err)
	}
	k.Security = security.NewService(k.Authority)
	if _, err := master.Spawn(k.Security); err != nil {
		return fmt.Errorf("core: spawn security service: %w", err)
	}
	return nil
}

// Boot installs factories and spawns the whole kernel. The caller advances
// the simulation afterwards; the kernel is fully up once the longest exec
// latency (the GSD's) has elapsed.
func Boot(net simhost.Fabric, hosts map[types.NodeID]*simhost.Host, opts Options) (*Kernel, error) {
	k, err := Prepare(net, hosts, opts)
	if err != nil {
		return nil, err
	}
	// Partition server daemons.
	for _, p := range k.Topo.Partitions {
		if err := k.spawnServerDaemons(hosts[p.Server], p, opts); err != nil {
			return nil, err
		}
	}
	// Per-node daemons.
	for _, ni := range k.Topo.Nodes {
		if err := k.spawnNodeDaemons(hosts[ni.ID], ni.ID, opts); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// BootNode wires and boots the kernel daemons belonging to a single host —
// the phoenix-node daemon path, where every node of the cluster is its own
// OS process and only the local slice of the kernel can be spawned
// directly. The host receives the full factory set (so recovery can
// migrate any daemon kind here later), the master services when it is the
// topology's master, the partition server daemons when it is a partition's
// server node, and the per-node daemons always.
func BootNode(net simhost.Fabric, host *simhost.Host, opts Options) (*Kernel, error) {
	k, err := newKernel(net, map[types.NodeID]*simhost.Host{host.ID(): host}, opts)
	if err != nil {
		return nil, err
	}
	if _, ok := k.Topo.Node(host.ID()); !ok {
		return nil, fmt.Errorf("%w: %v is not in the topology", ErrNoHost, host.ID())
	}
	registerFactories(host, k, opts)
	registerCommands(host)
	if k.Topo.Master == host.ID() {
		if err := k.spawnMasterServices(host); err != nil {
			return nil, err
		}
	}
	part, _ := k.Topo.PartitionOf(host.ID())
	if part.Server == host.ID() && !opts.Rejoin {
		if err := k.spawnServerDaemons(host, part, opts); err != nil {
			return nil, err
		}
	}
	if err := k.spawnNodeDaemons(host, host.ID(), opts); err != nil {
		return nil, err
	}
	return k, nil
}

// initialFedView derives the boot-time service-federation placement from
// the topology: every partition's services start on its server node.
func (k *Kernel) initialFedView() federation.View {
	initialPlacement := make(map[types.PartitionID]types.NodeID)
	for _, p := range k.Topo.Partitions {
		initialPlacement[p.ID] = p.Server
	}
	return federation.NewView(initialPlacement)
}

// spawnServerDaemons boots a partition's server-side daemons (GSD, event
// service, data bulletin, checkpoint service, gossip) on the given host.
func (k *Kernel) spawnServerDaemons(server *simhost.Host, p config.PartitionInfo, opts Options) error {
	topo, params := k.Topo, k.Params
	initialFed := k.initialFedView()
	g := gsd.New(gsd.Spec{Partition: p.ID, Topo: topo, Params: params,
		Extra:   opts.ExtraServices[p.ID],
		RPC:     opts.RPC,
		OnStart: k.trackGSD(p.ID)})
	if _, err := server.Spawn(g); err != nil {
		return fmt.Errorf("core: spawn GSD for %v: %w", p.ID, err)
	}
	k.gsds[p.ID] = g
	if _, err := server.Spawn(events.NewService(p.ID, initialFed, params.RPCTimeout, false)); err != nil {
		return fmt.Errorf("core: spawn ES for %v: %w", p.ID, err)
	}
	if _, err := server.Spawn(bulletin.NewService(p.ID, initialFed, bulletinConfig(params))); err != nil {
		return fmt.Errorf("core: spawn DB for %v: %w", p.ID, err)
	}
	if _, err := server.Spawn(k.newCheckpoint(p.ID, initialFed, opts)); err != nil {
		return fmt.Errorf("core: spawn CKPT for %v: %w", p.ID, err)
	}
	if _, err := server.Spawn(gossip.NewService(p.ID, initialFed, gossipConfig(params, p.ID))); err != nil {
		return fmt.Errorf("core: spawn gossip for %v: %w", p.ID, err)
	}
	return nil
}

// gossipConfig maps kernel parameters onto one partition's gossip
// instance. The seed mixes the partition ID so instances differ while
// whole-cluster runs stay reproducible.
func gossipConfig(params config.Params, p types.PartitionID) gossip.Config {
	return gossip.Config{
		Part:      p,
		Fanout:    params.GossipFanout,
		Interval:  params.GossipInterval,
		DigestCap: params.GossipDigestCap,
		Seed:      int64(p) + 1,
	}
}

// newCheckpoint builds a checkpoint instance, persistent when the kernel
// has a checkpoint directory.
func (k *Kernel) newCheckpoint(p types.PartitionID, view federation.View, opts Options) *checkpoint.Service {
	if opts.CheckpointDir != "" {
		return checkpoint.NewPersistentService(p, view, k.Params.BulletinFetchTimeout, opts.CheckpointDir)
	}
	return checkpoint.NewService(p, view, k.Params.BulletinFetchTimeout)
}

// spawnNodeDaemons boots the daemons that run on every node: watch daemon,
// detector, and parallel process manager.
func (k *Kernel) spawnNodeDaemons(host *simhost.Host, id types.NodeID, opts Options) error {
	params := k.Params
	part, _ := k.Topo.PartitionOf(id)
	wd := watchd.New(watchd.Spec{
		Partition: part.ID, GSDNode: part.Server,
		Interval: params.HeartbeatInterval, NICs: k.Topo.NICs,
		Supervise: true, DetectorSample: params.DetectorSampleInterval,
		Jitter: params.HeartbeatJitter,
	})
	wd.UseStore(opts.IncarnationStore)
	if _, err := host.Spawn(wd); err != nil {
		return fmt.Errorf("core: spawn WD on %v: %w", id, err)
	}
	if _, err := host.Spawn(detector.New(detector.Spec{
		Partition: part.ID, GSDNode: part.Server,
		SampleInterval: params.DetectorSampleInterval,
	})); err != nil {
		return fmt.Errorf("core: spawn detector on %v: %w", id, err)
	}
	if _, err := host.Spawn(newPPM(k, opts)); err != nil {
		return fmt.Errorf("core: spawn PPM on %v: %w", id, err)
	}
	return nil
}

func bulletinConfig(params config.Params) bulletin.Config {
	return bulletin.Config{
		FetchTimeout: params.BulletinFetchTimeout,
		CacheTTL:     params.BulletinCacheTTL,
		EntryTTL:     4 * params.DetectorSampleInterval,
		Replicas:     params.BulletinReplicas,
		VNodes:       params.BulletinVNodes,
		DeltaFlush:   params.BulletinDeltaFlush,
	}
}

func newPPM(k *Kernel, opts Options) *ppm.Daemon {
	spec := ppm.Spec{
		SubtreeTimeout: k.Params.RPCTimeout,
		// Retries arrive within one RPCTimeout budget; 4x gives slack for
		// clients that stretch their budget beyond the default.
		DedupTTL: 4 * k.Params.RPCTimeout,
	}
	if opts.EnforceAuth {
		spec.Authority = k.Authority
	}
	return ppm.New(spec)
}

// registerFactories installs the spawn factories used by recovery,
// migration, reintegration and job loading.
func registerFactories(host *simhost.Host, k *Kernel, opts Options) {
	topo, params := k.Topo, k.Params
	host.RegisterFactory(types.SvcGSD, func(spec any) simhost.Process {
		s, ok := spec.(gsd.SpawnSpec)
		if !ok {
			return nil
		}
		return gsd.New(gsd.Spec{
			Partition: s.Partition, Topo: topo, Params: params,
			View: s.View, Migrated: s.Migrated, Epoch: s.Epoch,
			Extra:   opts.ExtraServices[s.Partition],
			RPC:     opts.RPC,
			OnStart: k.trackGSD(s.Partition),
		})
	})
	host.RegisterFactory(types.SvcES, func(spec any) simhost.Process {
		s, ok := spec.(gsd.ServiceSpawnSpec)
		if !ok {
			return nil
		}
		return events.NewService(s.Partition, s.View, params.RPCTimeout, s.Restart)
	})
	host.RegisterFactory(types.SvcDB, func(spec any) simhost.Process {
		s, ok := spec.(gsd.ServiceSpawnSpec)
		if !ok {
			return nil
		}
		return bulletin.NewService(s.Partition, s.View, bulletinConfig(params))
	})
	host.RegisterFactory(types.SvcCkpt, func(spec any) simhost.Process {
		s, ok := spec.(gsd.ServiceSpawnSpec)
		if !ok {
			return nil
		}
		return k.newCheckpoint(s.Partition, s.View, opts)
	})
	host.RegisterFactory(types.SvcGossip, func(spec any) simhost.Process {
		s, ok := spec.(gsd.ServiceSpawnSpec)
		if !ok {
			return nil
		}
		return gossip.NewService(s.Partition, s.View, gossipConfig(params, s.Partition))
	})
	host.RegisterFactory(types.SvcWD, func(spec any) simhost.Process {
		s, ok := spec.(watchd.Spec)
		if !ok {
			return nil
		}
		// The incarnation store is node-local state, not part of the spec
		// (specs travel in remote spawn requests): a respawned WD reloads
		// the incarnation its predecessor persisted, so refutation bumps
		// survive WD restarts.
		w := watchd.New(s)
		w.UseStore(opts.IncarnationStore)
		return w
	})
	host.RegisterFactory(types.SvcDetector, func(spec any) simhost.Process {
		s, ok := spec.(detector.Spec)
		if !ok {
			return nil
		}
		return detector.New(s)
	})
	host.RegisterFactory(types.SvcPPM, func(spec any) simhost.Process {
		return newPPM(k, opts)
	})
	if opts.PWSFactory != nil {
		host.RegisterFactory(types.SvcPWS, opts.PWSFactory)
	}
	host.RegisterFactory("job", func(spec any) simhost.Process {
		s, ok := spec.(ppm.JobSpec)
		if !ok {
			return nil
		}
		return ppm.NewJobProc(s)
	})
}

// registerCommands installs the host commands exercised by the kernel's
// parallel command calls.
func registerCommands(host *simhost.Host) {
	id := host.ID()
	host.RegisterCommand("hostname", func(args []string) (string, error) {
		return id.String(), nil
	})
	host.RegisterCommand("uptime", func(args []string) (string, error) {
		return fmt.Sprintf("%s up since %s", id, host.BootedAt().Format("15:04:05")), nil
	})
	host.RegisterCommand("procs", func(args []string) (string, error) {
		return fmt.Sprintf("%d", len(host.Procs())), nil
	})
	host.RegisterCommand("uname", func(args []string) (string, error) {
		return host.OS(), nil
	})
}

// trackGSD records the currently executing GSD instance of a partition.
func (k *Kernel) trackGSD(p types.PartitionID) func(*gsd.Daemon) {
	return func(g *gsd.Daemon) { k.gsds[p] = g }
}

// GSD returns the most recently started GSD daemon for a partition
// (observability for tests and tools).
func (k *Kernel) GSD(p types.PartitionID) *gsd.Daemon { return k.gsds[p] }

// ServerNode reports where a partition's kernel services currently run,
// according to that partition's GSD federation view.
func (k *Kernel) ServerNode(p types.PartitionID) types.NodeID {
	if g := k.gsds[p]; g != nil {
		if e, ok := g.FederationView().Entries[p]; ok {
			return e.Node
		}
	}
	if info, ok := k.Topo.Partition(p); ok {
		return info.Server
	}
	return 0
}
