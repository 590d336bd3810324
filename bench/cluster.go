package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/bulletin"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/opshttp"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wire"
)

// planes is the number of network planes every real-socket workload runs.
const planes = 2

// realCluster is an in-process loopback cluster: one noded.Node per
// topology node on ephemeral UDP ports, plus one extra address-book slot
// for the client (the phoenix-call arrangement).
type realCluster struct {
	topo   *config.Topology
	params config.Params
	costs  simhost.Costs
	nodes  []*noded.Node

	clientTr  *wire.Transport
	clientReg *metrics.Registry
	rtc       *wire.Runtime
	rpcOpts   rpc.Options
}

// clusterSpec says what to boot. tracer, when set, stamps datagrams on
// every transport (the traced run); withPWS hosts the scheduler.
type clusterSpec struct {
	parts, size int
	withPWS     bool
	seed        int64
	tracer      *tracer
}

// bootCluster binds the transports, starts every node and waits until the
// cluster is ready: every node reports Ready and exactly one hosts the
// meta-group leader.
func bootCluster(spec clusterSpec) (*realCluster, error) {
	// The kernel logs recoveries and faults through the standard logger;
	// the benchmark's own report is the only output wanted.
	log.SetOutput(io.Discard)

	topo, err := config.Uniform(spec.parts, spec.size, planes)
	if err != nil {
		return nil, err
	}
	c := &realCluster{topo: topo, params: config.FastParams(), costs: simhost.DefaultCosts()}
	n := topo.NumNodes()
	transports := make([]*wire.Transport, n+1)
	book := wire.NewBook()
	for i := range transports {
		id := types.NodeID(i)
		reg := metrics.NewRegistry()
		opts := []wire.Option{wire.WithPlanes(planes), wire.WithMetrics(reg)}
		if spec.tracer != nil {
			opts = append(opts, spec.tracer.options(id, types.NodeID(n))...)
		}
		tr, err := wire.New(id, nil, opts...)
		if err != nil {
			closeAll(transports)
			return nil, err
		}
		transports[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(id, p, ep); err != nil {
				closeAll(transports)
				return nil, err
			}
		}
		if i == n {
			c.clientTr, c.clientReg = tr, reg
		}
	}
	for _, tr := range transports {
		tr.SetBook(book)
	}
	for i := 0; i < n; i++ {
		opts := []noded.Option{
			noded.WithParams(c.params), noded.WithCosts(c.costs),
			noded.WithTransport(transports[i]), noded.WithSeed(spec.seed*1000 + int64(i) + 1),
		}
		if spec.withPWS {
			opts = append(opts, noded.WithPWS(pws.Spec{
				Partition:   0,
				Pools:       pws.TopologyPools(topo),
				SchedPeriod: c.params.LocalCheckPeriod,
				UseBulletin: true,
				Overload:    pws.OverloadFromParams(c.params),
			}))
		}
		node, err := noded.Start(types.NodeID(i), topo, opts...)
		if err != nil {
			c.stop()
			closeAll(transports[i:])
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	c.rtc = wire.NewRuntime(c.clientTr, "bench", spec.seed)
	c.rpcOpts = rpc.Options{Budget: c.params.RPCTimeout, Metrics: c.clientReg}

	err = waitUntil(60*time.Second, "every node ready with one leader", func() bool {
		leaders := 0
		for _, st := range c.statuses() {
			if !st.Ready {
				return false
			}
			if st.GSDRole == opshttp.GSDLeader {
				leaders++
			}
		}
		return leaders == 1
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func closeAll(trs []*wire.Transport) {
	for _, tr := range trs {
		if tr != nil {
			tr.Close()
		}
	}
}

func (c *realCluster) stop() {
	if c.rtc != nil {
		c.rtc.Close()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	if c.clientTr != nil {
		c.clientTr.Close()
	}
}

func (c *realCluster) statuses() []opshttp.Status {
	out := make([]opshttp.Status, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Status()
	}
	return out
}

// servers lists the partition servers' addresses for one service, in
// partition order — the access-point candidates a client is handed.
func (c *realCluster) servers(service string) []types.Addr {
	var out []types.Addr
	for _, id := range c.topo.Servers() {
		out = append(out, types.Addr{Node: id, Service: service})
	}
	return out
}

// newBulletinClient attaches a bulletin client to the client runtime with
// partition 0's instance as the access point and every instance as a
// failover peer.
func (c *realCluster) newBulletinClient() *bulletin.Client {
	dbs := c.servers(types.SvcDB)
	opts := c.rpcOpts
	opts.Peers = func() []types.Addr { return dbs }
	return bulletin.NewClient(c.rtc, opts, func() (types.Addr, bool) { return dbs[0], true })
}

// clusterMark is the fault-free fence of a measured window plus the
// counter baselines per-op layer metrics are charged against.
type clusterMark struct {
	mapVersions  uint64 // sum of shard-map versions over every bulletin instance
	failVerdicts uint64
	suspects     uint64
	takeovers    uint64
	wire         wire.Stats
	windowStalls float64
	batched      float64
	shard        bulletin.ShardStats // summed over instances
	rpcClient    rpc.CallStats
	rpcShed      int // over every node and the client
	breakersOpen int // breakers not closed right now, over every node
}

func (c *realCluster) mark() clusterMark {
	var m clusterMark
	add := func(st wire.Stats, reg *metrics.Registry) {
		m.wire.TxMsgs += st.TxMsgs
		m.wire.TxDatagrams += st.TxDatagrams
		m.wire.TxBytes += st.TxBytes
		m.wire.TxAcks += st.TxAcks
		m.wire.Retransmits += st.Retransmits
		m.wire.Errors += st.Errors
		m.windowStalls += reg.Counter("wire.tx.window_stalls").Value()
		m.batched += reg.Counter("wire.tx.batched_frames").Value()
	}
	for i, st := range c.statuses() {
		add(st.Wire, c.nodes[i].Transport().Metrics())
		if st.Shard != nil {
			m.mapVersions += st.Shard.MapVersion
			m.shard.GetsServed += st.Shard.GetsServed
			m.shard.WrongShard += st.Shard.WrongShard
			m.shard.CacheHits += st.Shard.CacheHits
			m.shard.CacheMisses += st.Shard.CacheMisses
			m.shard.MapChanges += st.Shard.MapChanges
		}
		m.rpcShed += st.RPC.Shed
		m.breakersOpen += st.BreakersOpen
		if st.Detect != nil {
			m.failVerdicts += st.Detect.FailVerdicts
			m.suspects += st.Detect.Suspects
			m.takeovers += st.Detect.Takeovers
		}
	}
	add(c.clientTr.Stats(), c.clientReg)
	m.rpcClient = rpc.ReadStats(c.clientReg)
	m.rpcShed += m.rpcClient.Shed
	return m
}

// faultFree reports whether nothing the fault-free workloads forbid
// happened between two marks: no shard-map change, no fail verdict.
func faultFree(a, b clusterMark) bool {
	return a.mapVersions == b.mapVersions && a.shard.MapChanges == b.shard.MapChanges &&
		a.failVerdicts == b.failVerdicts && a.takeovers == b.takeovers
}

func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
