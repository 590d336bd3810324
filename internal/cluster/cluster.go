// Package cluster builds complete simulated Phoenix clusters: a
// discrete-event engine, a multi-NIC network, one simulated host per node,
// and a booted kernel. Experiments and examples start here.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Spec describes the cluster to build. The zero value is completed with
// the paper's defaults by Build.
type Spec struct {
	Partitions    int // number of partitions (paper testbed: 8)
	PartitionSize int // nodes per partition incl. server+backup (paper: 17)
	NICs          int // network interfaces per node (paper: 3)
	Seed          int64
	Params        config.Params
	Authority     *security.Authority
	EnforceAuth   bool
	// ExtraServices lists additional GSD-supervised services per
	// partition (see core.Options.ExtraServices).
	ExtraServices map[types.PartitionID][]string
	// Bare prepares the kernel (factories, master services) without
	// booting the daemons; the system construction tool does that
	// through the agents (package construct).
	Bare bool
}

// PaperTestbed returns the §5.1 configuration: 136 nodes in 8 partitions
// of 16 computing nodes plus 1 server node (and the paper's implied backup),
// 30-second heartbeats, 3 networks per node.
func PaperTestbed() Spec {
	return Spec{Partitions: 8, PartitionSize: 17, NICs: 3, Seed: 1,
		Params: config.DefaultParams()}
}

// Small returns a compact cluster for tests and examples: 4 partitions of
// 8 nodes with fast (1-second) heartbeats.
func Small() Spec {
	return Spec{Partitions: 4, PartitionSize: 8, NICs: 3, Seed: 1,
		Params: config.FastParams()}
}

// Cluster is a built, booted cluster.
type Cluster struct {
	Spec    Spec
	Engine  *sim.Engine
	Net     *simnet.Network
	Hosts   map[types.NodeID]*simhost.Host
	Topo    *config.Topology
	Kernel  *core.Kernel
	Metrics *metrics.Registry
}

// Build constructs and boots a cluster. Run the engine for at least
// BootTime before relying on kernel behaviour.
func Build(spec Spec) (*Cluster, error) {
	if spec.Partitions <= 0 {
		spec.Partitions = 4
	}
	if spec.PartitionSize < 2 {
		spec.PartitionSize = 8
	}
	if spec.NICs <= 0 {
		spec.NICs = 3
	}
	if spec.Params.HeartbeatInterval == 0 {
		spec.Params = config.DefaultParams()
	}

	topo, err := config.Uniform(spec.Partitions, spec.PartitionSize, spec.NICs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	eng := sim.New(spec.Seed)
	reg := metrics.NewRegistry()
	netParams := simnet.DefaultParams()
	netParams.NICs = spec.NICs
	net := simnet.New(eng, eng.Rand(), topo.NumNodes(), netParams, reg)
	hosts := make(map[types.NodeID]*simhost.Host, topo.NumNodes())
	costs := simhost.DefaultCosts()
	for _, ni := range topo.Nodes {
		hosts[ni.ID] = simhost.New(ni.ID, net, eng, eng.Rand(), costs)
	}
	boot := core.Boot
	if spec.Bare {
		boot = core.Prepare
	}
	kernel, err := boot(net, hosts, core.Options{
		Topo: topo, Params: spec.Params,
		Authority: spec.Authority, EnforceAuth: spec.EnforceAuth,
		ExtraServices: spec.ExtraServices,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Spec: spec, Engine: eng, Net: net, Hosts: hosts,
		Topo: topo, Kernel: kernel, Metrics: reg,
	}, nil
}

// BootTime is how long the slowest daemon (the GSD) takes to come up, plus
// margin for the initial announcements and supplier registrations.
func (c *Cluster) BootTime() time.Duration {
	return 3 * time.Second
}

// WarmUp advances the engine past boot.
func (c *Cluster) WarmUp() { c.Engine.RunFor(c.BootTime()) }

// Host returns the host for a node ID.
func (c *Cluster) Host(id types.NodeID) *simhost.Host { return c.Hosts[id] }

// RunFor advances virtual time.
func (c *Cluster) RunFor(d time.Duration) { c.Engine.RunFor(d) }
