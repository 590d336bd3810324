package noded_test

// Chaos acceptance proofs on real UDP loopback sockets (wall-clock tests;
// skipped under -short):
//
//   - Crash-restart rejoin: a four-node, two-plane cluster loses the
//     meta-group leader's node abruptly, the partition migrates to the
//     backup, and the node restarted from the same -state-dir rejoins —
//     /readyz answers 503 "rejoining" until the partition's current GSD
//     re-admits it, the meta-group converges to exactly one leader, and
//     the restarted node does not resurrect a second GSD.
//
//   - Plane-down failover: the chaos injector takes network plane 0 down
//     on every node; the cluster stays ready on plane 1, /statusz reports
//     the plane unhealthy, and healing the plane restores its traffic and
//     health.

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/opshttp"
	"repro/internal/types"
	"repro/internal/wire"
)

// bindCluster binds one ephemeral multi-plane transport per node (plus any
// extra wire options) and assembles the shared address book.
func bindCluster(t *testing.T, n, planes int, extra func(node types.NodeID) []wire.Option) ([]*wire.Transport, *wire.Book) {
	t.Helper()
	transports := make([]*wire.Transport, n)
	book := wire.NewBook()
	for i := range transports {
		id := types.NodeID(i)
		opts := []wire.Option{wire.WithPlanes(planes), wire.WithMetrics(metrics.NewRegistry())}
		if extra != nil {
			opts = append(opts, extra(id)...)
		}
		tr, err := wire.New(id, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	return transports, book
}

func get(t *testing.T, client *http.Client, addr, path string) (int, string) {
	t.Helper()
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// leaders counts reachable nodes reporting themselves meta-group leader.
func leaders(reports []opshttp.NodeReport) int {
	n := 0
	for _, r := range reports {
		if r.Reachable() && r.Status.GSDRole == opshttp.GSDLeader {
			n++
		}
	}
	return n
}

func TestCrashRestartRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test; skipped under -short")
	}
	const planes = 2
	// p0 = {0 server, 1 backup}, p1 = {2 server, 3 backup}; the meta-group
	// leader is partition 0's GSD on node 0 — the node we will crash.
	topo, err := config.Uniform(2, 2, planes)
	if err != nil {
		t.Fatal(err)
	}
	params, costs := fastAdminParams(), fastAdminCosts()
	dir0 := filepath.Join(t.TempDir(), "node0")

	transports, book := bindCluster(t, topo.NumNodes(), planes, nil)
	nodes := make([]*noded.Node, len(transports))
	for i, tr := range transports {
		tr.SetBook(book)
		opts := []noded.Option{
			noded.WithParams(params), noded.WithCosts(costs), noded.WithTransport(tr),
			noded.WithAdmin("127.0.0.1:0"),
		}
		if i == 0 {
			// The crash victim boots from a durable state directory; its
			// first boot writes the marker that turns the restart below
			// into a rejoin.
			opts = append(opts, noded.WithStateDir(dir0))
		}
		n, err := noded.Start(tr.Node(), topo, opts...)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}()
	if nodes[0].Status().Rejoining {
		t.Fatal("first boot from an empty state dir must not rejoin")
	}

	targets := make(map[types.NodeID]string, len(nodes))
	for _, n := range nodes {
		targets[n.Transport().Node()] = n.AdminAddr()
	}
	client := &http.Client{Timeout: time.Second}
	ctx := context.Background()

	waitFor(t, "all nodes ready with one leader", 30*time.Second, func() bool {
		for id := range targets {
			if code, _ := get(t, client, targets[id], "/readyz"); code != http.StatusOK {
				return false
			}
		}
		return leaders(opshttp.Gather(ctx, targets, time.Second)) == 1
	})

	// Crash the leader's node: Stop closes the sockets without telling
	// anyone — to the survivors this is indistinguishable from a SIGKILL,
	// and they must diagnose it and migrate partition 0 to its backup.
	nodes[0].Stop()
	nodes[0] = nil
	survivors := map[types.NodeID]string{1: targets[1], 2: targets[2], 3: targets[3]}
	waitFor(t, "partition 0 migrated and one leader among survivors", 60*time.Second, func() bool {
		reports := opshttp.Gather(ctx, survivors, time.Second)
		gsdOnBackup := false
		for _, r := range reports {
			if !r.Reachable() {
				return false
			}
			if r.Node == 1 && r.Status.GSDRole != opshttp.GSDNone {
				gsdOnBackup = true
			}
		}
		return gsdOnBackup && leaders(reports) == 1
	})

	// Restart from the same state directory: the marker makes it a rejoin.
	// WithBook rebinds the original endpoints recorded in the shared book.
	restarted, err := noded.Start(0, topo,
		noded.WithParams(params), noded.WithCosts(costs),
		noded.WithBook(book), noded.WithMetrics(metrics.NewRegistry()),
		noded.WithStateDir(dir0), noded.WithAdmin("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("restart node 0: %v", err)
	}
	nodes[0] = restarted
	targets[0] = restarted.AdminAddr()

	st := restarted.Status()
	if !st.Rejoining {
		t.Fatal("restart from a used state dir did not enter rejoin mode")
	}
	if st.Ready || st.ReadyReason != "rejoining" {
		t.Fatalf("rejoining node readiness = %v %q, want not ready, reason rejoining", st.Ready, st.ReadyReason)
	}
	if code, body := get(t, client, targets[0], "/readyz"); code == http.StatusServiceUnavailable {
		if !strings.Contains(body, "rejoining") {
			t.Fatalf("/readyz 503 body %q, want rejoining", body)
		}
	}

	// Re-admission: the partition's current GSD announces itself to the
	// restarted watch daemon, readiness flips, and the cluster converges
	// to exactly one leader with the meta-group fully alive.
	waitFor(t, "rejoined node ready", 60*time.Second, func() bool {
		code, _ := get(t, client, targets[0], "/readyz")
		return code == http.StatusOK
	})
	waitFor(t, "one leader and a full meta-group across all four nodes", 60*time.Second, func() bool {
		reports := opshttp.Gather(ctx, targets, time.Second)
		if len(reports) != 4 || leaders(reports) != 1 {
			return false
		}
		for _, r := range reports {
			if !r.Reachable() {
				return false
			}
			if r.Status.GSDRole != opshttp.GSDNone && r.Status.MetaAlive != 2 {
				return false
			}
		}
		return true
	})

	// The rejoined node must not have resurrected a second GSD for the
	// migrated partition: re-admission leaves it with node 1.
	resurrected := false
	restarted.Do(func() {
		resurrected = restarted.Host().Present(types.SvcGSD)
	})
	if resurrected {
		t.Fatal("rejoined node resurrected a GSD although the partition migrated")
	}
	if st := restarted.Status(); st.Rejoining {
		t.Fatal("rejoin state never cleared after re-admission")
	}
}

func TestPlaneDownFailoverKeepsClusterAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test; skipped under -short")
	}
	const planes = 2
	topo, err := config.Uniform(2, 2, planes)
	if err != nil {
		t.Fatal(err)
	}
	params, costs := fastAdminParams(), fastAdminCosts()

	// One injector per node; a short retransmission budget makes dead
	// plane-0 lanes fault (and be marked down) within a second.
	injectors := make(map[types.NodeID]*chaos.Injector)
	transports, book := bindCluster(t, topo.NumNodes(), planes, func(id types.NodeID) []wire.Option {
		inj := chaos.New(100+int64(id), clock.Real{})
		injectors[id] = inj
		return []wire.Option{
			wire.WithOutboundFilter(inj.Outbound()),
			wire.WithInboundFilter(inj.Inbound()),
			wire.WithRetransmit(60*time.Millisecond, 4),
			wire.WithAckDelay(10 * time.Millisecond),
		}
	})
	nodes := make([]*noded.Node, len(transports))
	for i, tr := range transports {
		tr.SetBook(book)
		n, err := noded.Start(tr.Node(), topo,
			noded.WithParams(params), noded.WithCosts(costs), noded.WithTransport(tr),
			noded.WithAdmin("127.0.0.1:0"))
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	targets := make(map[types.NodeID]string, len(nodes))
	for _, n := range nodes {
		targets[n.Transport().Node()] = n.AdminAddr()
	}
	client := &http.Client{Timeout: time.Second}
	ctx := context.Background()

	waitFor(t, "all nodes ready with one leader", 30*time.Second, func() bool {
		for id := range targets {
			if code, _ := get(t, client, targets[id], "/readyz"); code != http.StatusOK {
				return false
			}
		}
		return leaders(opshttp.Gather(ctx, targets, time.Second)) == 1
	})

	// Take plane 0 down everywhere — the same nic-down step a scenario
	// file would apply on every node via `phoenix-node -chaos`.
	step := chaos.Step{Op: "nic-down", Plane: 0, Node: chaos.AnyPeer}
	for id, inj := range injectors {
		chaos.NewRunner(inj, id, nil).Apply(step)
	}

	// Every node marks plane 0 unhealthy (via /statusz) while plane 1
	// stays clean, and somewhere in the cluster AnyNIC sends have failed
	// over around the dead lanes.
	waitFor(t, "plane 0 reported unhealthy on every node", 60*time.Second, func() bool {
		for id := range targets {
			st, err := opshttp.Fetch(ctx, client, targets[id])
			if err != nil {
				return false
			}
			if len(st.Wire.Planes) != planes || st.Wire.Planes[0].Healthy || !st.Wire.Planes[1].Healthy {
				return false
			}
		}
		var failovers int64
		for _, n := range nodes {
			failovers += n.Transport().Stats().Failovers
		}
		return failovers > 0
	})

	// The cluster keeps serving on the surviving plane: everyone ready,
	// exactly one leader.
	waitFor(t, "cluster alive on the surviving plane", 60*time.Second, func() bool {
		for id := range targets {
			if code, _ := get(t, client, targets[id], "/readyz"); code != http.StatusOK {
				return false
			}
		}
		return leaders(opshttp.Gather(ctx, targets, time.Second)) == 1
	})

	// Heal plane 0: the per-NIC watch-daemon heartbeats keep probing the
	// dead plane, so their first acked delivery marks the lanes up again
	// and plane-0 traffic resumes.
	var rxBefore []int64
	for _, n := range nodes {
		rxBefore = append(rxBefore, n.Transport().Stats().Planes[0].RxDatagrams)
	}
	for _, inj := range injectors {
		inj.Heal()
	}
	waitFor(t, "plane 0 healthy and carrying traffic again", 60*time.Second, func() bool {
		for i, n := range nodes {
			st := n.Transport().Stats()
			if !st.Planes[0].Healthy {
				return false
			}
			if st.Planes[0].RxDatagrams <= rxBefore[i] {
				return false
			}
		}
		return true
	})
}
