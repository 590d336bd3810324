package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bulletin"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/federation"
	"repro/internal/gossip"
	"repro/internal/types"
	"repro/internal/wire"
)

// The scale benchmark quantifies what the gossip plane costs and delivers
// as the cluster grows, in two tiers:
//
//   - sim tier: full simulated kernels at 136 (the paper's testbed),
//     256 and 512 nodes — steady-state kernel traffic per node, bulletin
//     delta propagation time, and federation view convergence time after
//     a GSD failure forces a view change;
//   - loopback tier: real-socket clusters of 64/128 gossip engines over
//     wire transports, measuring how long one seeded view change plus a
//     delta burst takes to reach every node, and the datagram/byte cost.
//
// phoenix-bench -exp scale renders the table and writes BENCH_scale.json
// so the numbers are pinned per PR.

// ScaleSimRow is one simulated cluster measurement.
type ScaleSimRow struct {
	Nodes      int `json:"nodes"`
	Partitions int `json:"partitions"`
	// Steady-state kernel traffic, all planes and services.
	MsgsPerNodeSec  float64 `json:"msgs_per_node_sec"`
	BytesPerNodeSec float64 `json:"bytes_per_node_sec"`
	// GossipMsgsPerRound is the cluster-wide digest+updates message count
	// per gossip round.
	GossipMsgsPerRound float64 `json:"gossip_msgs_per_round"`
	// MaxFanout is the most peers any instance contacted in one round.
	MaxFanout int `json:"max_fanout"`
	// DeltaConvergeMs is how long a freshly authored bulletin delta takes
	// to be applied by every other partition.
	DeltaConvergeMs float64 `json:"delta_converge_ms"`
	// ViewConvergeMs is how long after a partition-server GSD kill every
	// partition's bulletin observes the post-recovery shard map version.
	ViewConvergeMs float64 `json:"view_converge_ms"`
}

// ScaleLoopbackRow is one real-socket measurement: gossip engines over
// loopback wire transports.
type ScaleLoopbackRow struct {
	Nodes  int `json:"nodes"`
	Fanout int `json:"fanout"`
	// ConvergeMs is how long a view change plus delta burst seeded at
	// node 0 takes to reach all nodes.
	ConvergeMs      float64 `json:"converge_ms"`
	Datagrams       uint64  `json:"datagrams"`
	BytesPerNodeSec float64 `json:"bytes_per_node_sec"`
}

// ScaleBench is the full report, serialised as BENCH_scale.json.
type ScaleBench struct {
	Go       string             `json:"go"`
	Quick    bool               `json:"quick"`
	Fanout   int                `json:"fanout"`
	Sim      []ScaleSimRow      `json:"sim"`
	Loopback []ScaleLoopbackRow `json:"loopback"`
}

// simTiers are the sim-tier cluster shapes: the paper's 8x17 testbed,
// then the two doublings the gossip plane targets.
var simTiers = []struct{ parts, size int }{
	{8, 17},  // 136 nodes
	{16, 16}, // 256 nodes
	{32, 16}, // 512 nodes
}

// RunScaleBench runs both tiers. Quick halves the steady-state window.
func RunScaleBench(quick bool) (*ScaleBench, error) {
	fanout := config.DefaultParams().GossipFanout
	b := &ScaleBench{Go: runtime.Version(), Quick: quick, Fanout: fanout}
	window := 20 * time.Second
	if quick {
		window = 10 * time.Second
	}
	for _, tier := range simTiers {
		row, err := scaleSimRow(tier.parts, tier.size, window)
		if err != nil {
			return nil, fmt.Errorf("scale sim %dx%d: %w", tier.parts, tier.size, err)
		}
		b.Sim = append(b.Sim, row)
	}
	for _, nodes := range []int{64, 128} {
		row, err := scaleLoopback(nodes, fanout)
		if err != nil {
			return nil, fmt.Errorf("scale loopback %d: %w", nodes, err)
		}
		b.Loopback = append(b.Loopback, row)
	}
	return b, nil
}

// partitionDBs returns the freshest bulletin instance per partition (a
// migrated partition can briefly host two).
func partitionDBs(c *cluster.Cluster) map[types.PartitionID]*bulletin.Service {
	out := make(map[types.PartitionID]*bulletin.Service, len(c.Topo.Partitions))
	for _, p := range c.Topo.Partitions {
		for _, m := range p.Members {
			db, ok := c.Hosts[m].Proc(types.SvcDB).(*bulletin.Service)
			if !ok {
				continue
			}
			if cur, exists := out[p.ID]; !exists || db.Stats().MapVersion > cur.Stats().MapVersion {
				out[p.ID] = db
			}
		}
	}
	return out
}

func scaleSimRow(parts, size int, window time.Duration) (ScaleSimRow, error) {
	spec := cluster.Spec{
		Partitions: parts, PartitionSize: size, NICs: 3, Seed: 1,
		Params: config.FastParams(),
	}
	row := ScaleSimRow{Nodes: parts * size, Partitions: parts}
	c, err := cluster.Build(spec)
	if err != nil {
		return row, err
	}
	c.WarmUp()
	c.RunFor(5 * time.Second)

	// Steady-state traffic over the window.
	nodes := float64(parts * size)
	msgs0 := c.Metrics.Counter("net.msgs").Value()
	bytes0 := c.Metrics.Counter("net.bytes").Value()
	gsp0 := c.Metrics.Counter("net.msgs."+gossip.MsgDigest).Value() +
		c.Metrics.Counter("net.msgs."+gossip.MsgUpdates).Value()
	c.RunFor(window)
	secs := window.Seconds()
	row.MsgsPerNodeSec = (c.Metrics.Counter("net.msgs").Value() - msgs0) / secs / nodes
	row.BytesPerNodeSec = (c.Metrics.Counter("net.bytes").Value() - bytes0) / secs / nodes
	gspMsgs := c.Metrics.Counter("net.msgs."+gossip.MsgDigest).Value() +
		c.Metrics.Counter("net.msgs."+gossip.MsgUpdates).Value() - gsp0
	roundsPerWindow := secs / spec.Params.GossipInterval.Seconds()
	row.GossipMsgsPerRound = gspMsgs / roundsPerWindow
	for _, p := range c.Topo.Partitions {
		for _, m := range p.Members {
			if svc, ok := c.Hosts[m].Proc(types.SvcGossip).(*gossip.Service); ok {
				if mf := svc.Stats().MaxFanout; mf > row.MaxFanout {
					row.MaxFanout = mf
				}
			}
		}
	}

	// Delta propagation: the next delta partition 0's primary flushes
	// must reach every other partition's applied sequence.
	dbs := partitionDBs(c)
	src := types.PartitionID(0)
	target := dbs[src].DeltaSeq() + 1
	start := c.Engine.Elapsed()
	deadline := start + 60*time.Second
	for c.Engine.Elapsed() < deadline {
		c.RunFor(25 * time.Millisecond)
		done := true
		for p, db := range partitionDBs(c) {
			if p == src {
				continue
			}
			if db.AppliedSeq(src) < target {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if c.Engine.Elapsed() >= deadline {
		return row, fmt.Errorf("delta seq %d from partition 0 did not reach all peers", target)
	}
	row.DeltaConvergeMs = float64(c.Engine.Elapsed()-start) / float64(time.Millisecond)

	// View convergence: kill the last partition's GSD and wait until
	// every partition's bulletin runs on a newer shard map.
	v0 := uint64(0)
	for _, db := range dbs {
		if v := db.Stats().MapVersion; v > v0 {
			v0 = v
		}
	}
	victim := c.Topo.Partitions[parts-1].Server
	if err := c.Hosts[victim].Kill(types.SvcGSD); err != nil {
		return row, err
	}
	start = c.Engine.Elapsed()
	deadline = start + 120*time.Second
	for c.Engine.Elapsed() < deadline {
		c.RunFor(50 * time.Millisecond)
		done := true
		for _, db := range partitionDBs(c) {
			if db.Stats().MapVersion <= v0 {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if c.Engine.Elapsed() >= deadline {
		return row, fmt.Errorf("view change after GSD kill did not converge")
	}
	row.ViewConvergeMs = float64(c.Engine.Elapsed()-start) / float64(time.Millisecond)
	return row, nil
}

// loopNode is one loopback gossip participant: an engine behind a mutex
// (the transport delivers from its own goroutine) on its own transport.
type loopNode struct {
	mu  sync.Mutex
	eng *gossip.Engine
	tr  *wire.Transport
}

func (n *loopNode) send(to types.NodeID, typ string, payload any) {
	msg := types.Message{
		From: types.Addr{Node: n.tr.Node(), Service: types.SvcGossip},
		To:   types.Addr{Node: to, Service: types.SvcGossip},
		NIC:  0, Type: typ, Payload: payload,
	}
	// A full send queue is backpressure: drop the message — gossip is
	// retry-free by design, the next round re-advertises.
	_ = n.tr.Send(msg)
}

// scaleLoopback runs nodes gossip engines on real loopback sockets
// (node i speaks for partition i), seeds node 0 with a view change and a
// delta burst, and measures time-to-everywhere plus wire cost.
func scaleLoopback(nodes, fanout int) (ScaleLoopbackRow, error) {
	const (
		interval = 20 * time.Millisecond
		deltas   = 8
	)
	row := ScaleLoopbackRow{Nodes: nodes, Fanout: fanout}
	view := federationView(nodes, 1)

	book := wire.NewBook()
	peers := make([]*loopNode, nodes)
	for i := range peers {
		tr, err := wire.New(types.NodeID(i), nil, wire.WithPlanes(1))
		if err != nil {
			return row, err
		}
		defer tr.Close()
		eng := gossip.NewEngine(gossip.Config{
			Part: types.PartitionID(i), Fanout: fanout,
			Interval: interval, Seed: int64(i) + 1,
		})
		eng.SetView(view)
		peers[i] = &loopNode{eng: eng, tr: tr}
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				return row, err
			}
		}
	}
	for _, n := range peers {
		n.tr.SetBook(book)
	}
	for _, n := range peers {
		n := n
		n.tr.Register(types.Addr{Node: n.tr.Node(), Service: types.SvcGossip}, func(m types.Message) {
			n.mu.Lock()
			defer n.mu.Unlock()
			switch m.Type {
			case gossip.MsgDigest:
				d, ok := m.Payload.(gossip.DigestMsg)
				if !ok {
					return
				}
				ups, has, wantReply := n.eng.HandleDigest(d.Digest, d.Reply)
				if has {
					n.send(m.From.Node, gossip.MsgUpdates, gossip.UpdatesMsg{Updates: ups})
				}
				if wantReply {
					n.send(m.From.Node, gossip.MsgDigest,
						gossip.DigestMsg{Digest: n.eng.Digest(), Reply: true})
				}
			case gossip.MsgUpdates:
				u, ok := m.Payload.(gossip.UpdatesMsg)
				if !ok {
					return
				}
				n.eng.HandleUpdates(u.Updates)
			}
		})
	}

	// Seed node 0 with the payload to spread.
	payload := make([]byte, 256)
	peers[0].eng.SetView(federationView(nodes, 2))
	for seq := uint64(1); seq <= deltas; seq++ {
		peers[0].eng.AddDelta(0, seq, payload)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, n := range peers {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					n.mu.Lock()
					dig := n.eng.Digest()
					targets := n.eng.PickPeers()
					n.mu.Unlock()
					for _, to := range targets {
						n.send(to, gossip.MsgDigest, gossip.DigestMsg{Digest: dig})
					}
				}
			}
		}()
	}

	start := time.Now()
	converged := false
	for time.Since(start) < 60*time.Second {
		time.Sleep(5 * time.Millisecond)
		done := true
		for _, n := range peers {
			n.mu.Lock()
			ok := n.eng.View().Version == 2 && n.eng.SeqKnown(0) == deltas
			n.mu.Unlock()
			if !ok {
				done = false
				break
			}
		}
		if done {
			converged = true
			break
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if !converged {
		return row, fmt.Errorf("loopback gossip did not converge within 60s")
	}
	row.ConvergeMs = float64(elapsed) / float64(time.Millisecond)
	var bytes float64
	for _, n := range peers {
		row.Datagrams += uint64(n.tr.Metrics().Counter("wire.tx.datagrams").Value())
		bytes += n.tr.Metrics().Counter("wire.tx.bytes").Value()
	}
	row.BytesPerNodeSec = bytes / elapsed.Seconds() / float64(nodes)
	return row, nil
}

// federationView builds an all-alive view where partition i's server is
// node i.
func federationView(n int, version uint64) federation.View {
	v := federation.View{Version: version, Entries: make(map[types.PartitionID]federation.Entry, n)}
	for p := 0; p < n; p++ {
		v.Entries[types.PartitionID(p)] = federation.Entry{Node: types.NodeID(p), Alive: true}
	}
	return v
}

// Render tabulates both tiers.
func (b *ScaleBench) Render() string {
	var sb strings.Builder
	sb.WriteString("Scale — gossip dissemination (simulated kernels)\n")
	fmt.Fprintf(&sb, "  %-6s %-6s %12s %14s %12s %12s %11s\n",
		"nodes", "parts", "msgs/node/s", "bytes/node/s", "delta ms", "view ms", "msgs/round")
	for _, r := range b.Sim {
		fmt.Fprintf(&sb, "  %-6d %-6d %12.1f %14.0f %12.0f %12.0f %11.0f\n",
			r.Nodes, r.Partitions, r.MsgsPerNodeSec, r.BytesPerNodeSec,
			r.DeltaConvergeMs, r.ViewConvergeMs, r.GossipMsgsPerRound)
	}
	fmt.Fprintf(&sb, "  (gossip fanout %d; view ms = GSD kill to cluster-wide shard-map adoption)\n\n", b.Fanout)

	sb.WriteString("Scale — loopback gossip engines (real sockets, view change + 8-delta burst from node 0)\n")
	fmt.Fprintf(&sb, "  %-6s %-7s %12s %11s %14s\n",
		"nodes", "fanout", "converge ms", "datagrams", "bytes/node/s")
	for _, r := range b.Loopback {
		fmt.Fprintf(&sb, "  %-6d %-7d %12.0f %11d %14.0f\n",
			r.Nodes, r.Fanout, r.ConvergeMs, r.Datagrams, r.BytesPerNodeSec)
	}
	return sb.String()
}

// WriteJSON writes the report where the PR gate reads it.
func (b *ScaleBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
