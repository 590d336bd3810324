package detector_test

import (
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/detector"
	"repro/internal/federation"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// rig: DB instances on nodes 0 and 1 (partitions 0, 1); detector under
// test on node 2 (partition 0).
func rig(t *testing.T) (*sim.Engine, []*simhost.Host, []*bulletin.Service, *detector.Daemon) {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 3, simnet.DefaultParams(), metrics.NewRegistry())
	view := federation.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 1})
	hosts := make([]*simhost.Host, 3)
	for i := range hosts {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
	}
	svcs := make([]*bulletin.Service, 2)
	for i := 0; i < 2; i++ {
		svcs[i] = bulletin.NewService(types.PartitionID(i), view, bulletin.Config{
			FetchTimeout: 200 * time.Millisecond, CacheTTL: time.Second, EntryTTL: time.Minute,
		})
		if _, err := hosts[i].Spawn(svcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := detector.New(detector.Spec{Partition: 0, GSDNode: 0, SampleInterval: time.Second})
	if _, err := hosts[2].Spawn(d); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(500 * time.Millisecond)
	return eng, hosts, svcs, d
}

func TestSamplesExportedToBulletin(t *testing.T) {
	eng, _, svcs, d := rig(t)
	eng.RunFor(5 * time.Second)
	if d.Samples < 5 {
		t.Fatalf("samples = %d", d.Samples)
	}
	if svcs[0].Entries() != 1 {
		t.Fatalf("partition DB entries = %d (one node exporting)", svcs[0].Entries())
	}
	if svcs[1].Entries() != 0 {
		t.Fatal("detector exported to the wrong partition's instance")
	}
}

func TestAppLifecycleExported(t *testing.T) {
	eng, hosts, _, _ := rig(t)
	// Start a job on the detector's node; the app-state detector exports
	// its birth and death.
	if _, err := hosts[2].Spawn(ppm.NewJobProc(ppm.JobSpec{ID: 3, Duration: 2 * time.Second})); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	// Query via a throwaway client on node 1.
	var apps int = -1
	q := &queryProc{target: 0, onApps: func(n int) { apps = n }}
	if _, err := hosts[1].Spawn(q); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if apps != 1 {
		t.Fatalf("apps while running = %d", apps)
	}
	// After the job exits, the dead-app export removes it.
	eng.RunFor(3 * time.Second)
	apps = -1
	q.query()
	eng.RunFor(time.Second)
	if apps != 0 {
		t.Fatalf("apps after exit = %d", apps)
	}
}

type queryProc struct {
	target types.NodeID
	client *bulletin.Client
	onApps func(int)
}

func (p *queryProc) Service() string { return "query" }
func (p *queryProc) OnStop()         {}
func (p *queryProc) Start(h *simhost.Handle) {
	p.client = bulletin.NewClient(h, rpc.Budget(time.Second), func() (types.Addr, bool) {
		return types.Addr{Node: p.target, Service: types.SvcDB}, true
	})
	p.query()
}
func (p *queryProc) Receive(msg types.Message) { p.client.Handle(msg) }
func (p *queryProc) query() {
	p.client.Query(bulletin.ScopePartition, func(ack bulletin.QueryAck, ok bool) {
		if ok && p.onApps != nil {
			p.onApps(len(ack.Snapshots[0].Apps))
		}
	})
}

func TestDetectorFollowsGSDAnnounce(t *testing.T) {
	eng, hosts, svcs, _ := rig(t)
	// A job runs before the move; its start row went to node 0 only.
	if _, err := hosts[2].Spawn(ppm.NewJobProc(ppm.JobSpec{ID: 5, Duration: time.Minute})); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	// Move the partition's services to node 1 (as a migration would) and
	// announce; exports must follow.
	ann := heartbeat.GSDAnnounce{Partition: 0, GSDNode: 1}
	net := hostsNet(hosts)
	_ = net.Send(types.Message{
		From: types.Addr{Node: 1, Service: types.SvcGSD},
		To:   types.Addr{Node: 2, Service: types.SvcDetector},
		NIC:  types.AnyNIC, Type: heartbeat.MsgGSDAnnounce, Payload: ann,
	})
	before := svcs[1].Entries()
	eng.RunFor(3 * time.Second)
	if svcs[1].Entries() <= before {
		t.Fatal("exports did not follow the announce")
	}
	// The announce also re-sent the running job's row to the new instance.
	apps := -1
	q := &queryProc{target: 1, onApps: func(n int) { apps = n }}
	if _, err := hosts[0].Spawn(q); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if apps != 1 {
		t.Fatalf("apps at the announced instance = %d, want the running job", apps)
	}
}

// hostsNet digs the shared network out of a host (test convenience).
func hostsNet(hosts []*simhost.Host) interface {
	Send(types.Message) error
} {
	return netAccessor{hosts[0]}
}

type netAccessor struct{ h *simhost.Host }

func (n netAccessor) Send(m types.Message) error {
	// Route via a transient process on the host to reuse its network.
	proxy := &sendProxy{msg: m}
	if _, err := n.h.Spawn(proxy); err != nil {
		return err
	}
	return nil
}

type sendProxy struct{ msg types.Message }

func (p *sendProxy) Service() string { return "sendproxy" }
func (p *sendProxy) OnStop()         {}
func (p *sendProxy) Start(h *simhost.Handle) {
	h.Send(p.msg.To, p.msg.NIC, p.msg.Type, p.msg.Payload)
	h.After(time.Millisecond, h.Exit)
}
func (p *sendProxy) Receive(types.Message) {}
