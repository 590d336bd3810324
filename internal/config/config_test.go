package config

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

func TestUniformTopology(t *testing.T) {
	topo, err := Uniform(8, 17, 3) // the paper's 136-node testbed
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 136 {
		t.Fatalf("nodes = %d, want 136", topo.NumNodes())
	}
	if len(topo.Partitions) != 8 {
		t.Fatalf("partitions = %d, want 8", len(topo.Partitions))
	}
	servers := topo.Servers()
	if len(servers) != 8 || servers[0] != 0 || servers[1] != 17 {
		t.Fatalf("servers = %v", servers)
	}
	ni, ok := topo.Node(18)
	if !ok || ni.Partition != 1 || ni.Role != types.RoleBackup {
		t.Fatalf("node 18 = %+v", ni)
	}
	ni, _ = topo.Node(20)
	if ni.Role != types.RoleCompute {
		t.Fatalf("node 20 role = %v", ni.Role)
	}
	p, ok := topo.PartitionOf(35)
	if !ok || p.ID != 2 {
		t.Fatalf("partition of node 35 = %+v", p)
	}
	// server + backup per partition; rest compute
	if got := len(topo.ComputeNodes()); got != 8*15 {
		t.Fatalf("compute nodes = %d, want 120", got)
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		nics  int
		parts []PartitionInfo
	}{
		{"no NICs", 0, []PartitionInfo{{ID: 0, Server: 0, Backups: []types.NodeID{1}, Members: []types.NodeID{0, 1}}}},
		{"no members", 3, []PartitionInfo{{ID: 0, Server: 0, Backups: []types.NodeID{1}}}},
		{"no backups", 3, []PartitionInfo{{ID: 0, Server: 0, Members: []types.NodeID{0, 1}}}},
		{"server not member", 3, []PartitionInfo{{ID: 0, Server: 9, Backups: []types.NodeID{1}, Members: []types.NodeID{0, 1}}}},
		{"backup not member", 3, []PartitionInfo{{ID: 0, Server: 0, Backups: []types.NodeID{9}, Members: []types.NodeID{0, 1}}}},
		{"backup is server", 3, []PartitionInfo{{ID: 0, Server: 0, Backups: []types.NodeID{0}, Members: []types.NodeID{0, 1}}}},
		{"node in two partitions", 3, []PartitionInfo{
			{ID: 0, Server: 0, Backups: []types.NodeID{1}, Members: []types.NodeID{0, 1}},
			{ID: 1, Server: 1, Backups: []types.NodeID{2}, Members: []types.NodeID{1, 2}},
		}},
		{"duplicate partition", 3, []PartitionInfo{
			{ID: 0, Server: 0, Backups: []types.NodeID{1}, Members: []types.NodeID{0, 1}},
			{ID: 0, Server: 2, Backups: []types.NodeID{3}, Members: []types.NodeID{2, 3}},
		}},
	}
	for _, c := range cases {
		if _, err := Build(c.nics, 0, c.parts); err == nil {
			t.Errorf("%s: Build accepted invalid topology", c.name)
		}
	}
}

func TestUniformTooSmall(t *testing.T) {
	if _, err := Uniform(2, 1, 3); err == nil {
		t.Fatal("partition of size 1 accepted")
	}
}

// Property: for any valid (nParts, partSize), every node belongs to exactly
// one partition and roles are consistent.
func TestPropertyUniformConsistent(t *testing.T) {
	f := func(np, ps uint8) bool {
		nParts := int(np%12) + 1
		partSize := int(ps%8) + 2
		topo, err := Uniform(nParts, partSize, 3)
		if err != nil {
			return false
		}
		if topo.NumNodes() != nParts*partSize {
			return false
		}
		for _, p := range topo.Partitions {
			if len(p.Members) != partSize {
				return false
			}
			for _, m := range p.Members {
				ni, ok := topo.Node(m)
				if !ok || ni.Partition != p.ID {
					return false
				}
			}
			si, _ := topo.Node(p.Server)
			if si.Role != types.RoleServer {
				return false
			}
		}
		return len(topo.Servers()) == nParts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParamsVariedOrDeployment keeps Params to what is actually set: every
// field must differ between the two presets, unless it is a deployment
// setting that real-socket tests and examples change. A value both presets
// share and nothing overrides belongs in a constant beside its reader.
func TestParamsVariedOrDeployment(t *testing.T) {
	deployment := map[string]bool{
		"HeartbeatGrace":       true, // the wire and noded integration tests widen it to 300 ms
		"BulletinFetchTimeout": true, // the wire integration test doubles it
		"BulletinCacheTTL":     true, // the wire integration test and examples/realnet shorten it
		"RPCTimeout":           true, // the socket tests shorten it; bench/ sizes its waits from it
	}
	def, fast := reflect.ValueOf(DefaultParams()), reflect.ValueOf(FastParams())
	var shared []string
	for i := 0; i < def.NumField(); i++ {
		name := def.Type().Field(i).Name
		if reflect.DeepEqual(def.Field(i).Interface(), fast.Field(i).Interface()) && !deployment[name] {
			shared = append(shared, name)
		}
	}
	if len(shared) > 0 {
		t.Fatalf("Params fields equal in both presets and not deployment settings: %v", shared)
	}
}

// rig boots a tiny cluster with a config service on node 0.
func rig(t *testing.T) (*sim.Engine, *simnet.Network, []*simhost.Host, *Service) {
	t.Helper()
	topo, err := Uniform(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), topo.NumNodes(), simnet.DefaultParams(), metrics.NewRegistry())
	hosts := make([]*simhost.Host, topo.NumNodes())
	for i := range hosts {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
	}
	svc := NewService(topo, DefaultParams(), nil)
	if _, err := hosts[0].Spawn(svc); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return eng, net, hosts, svc
}

func TestServiceGet(t *testing.T) {
	eng, net, _, _ := rig(t)
	var got *Topology
	net.Register(types.Addr{Node: 5, Service: "client"}, func(m types.Message) {
		if a, ok := m.Payload.(GetAck); ok {
			got = a.Topology
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 5, Service: "client"},
		To:   types.Addr{Node: 0, Service: types.SvcConfig},
		NIC:  types.AnyNIC, Type: MsgGet, Payload: GetReq{Token: 1},
	})
	eng.Run()
	if got == nil || got.NumNodes() != 6 || got.Version != 1 {
		t.Fatalf("topology reply: %+v", got)
	}
}

func TestServiceIntrospect(t *testing.T) {
	eng, net, hosts, _ := rig(t)
	hosts[4].PowerOff()
	var ack *IntrospectAck
	net.Register(types.Addr{Node: 5, Service: "client"}, func(m types.Message) {
		if a, ok := m.Payload.(IntrospectAck); ok {
			ack = &a
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 5, Service: "client"},
		To:   types.Addr{Node: 0, Service: types.SvcConfig},
		NIC:  types.AnyNIC, Type: MsgIntrospect, Payload: IntrospectReq{Token: 2},
	})
	eng.Run()
	if ack == nil {
		t.Fatal("no introspect ack")
	}
	if len(ack.Alive) != 5 || len(ack.Dead) != 1 || ack.Dead[0] != 4 {
		t.Fatalf("introspect: alive=%v dead=%v", ack.Alive, ack.Dead)
	}
}

func TestServiceReconfig(t *testing.T) {
	eng, net, _, svc := rig(t)
	var events []types.Event
	svc.publish = func(ev types.Event) { events = append(events, ev) }
	var acks []ReconfigAck
	net.Register(types.Addr{Node: 5, Service: "client"}, func(m types.Message) {
		if a, ok := m.Payload.(ReconfigAck); ok {
			acks = append(acks, a)
		}
	})
	send := func(req ReconfigReq) {
		_ = net.Send(types.Message{
			From: types.Addr{Node: 5, Service: "client"},
			To:   types.Addr{Node: 0, Service: types.SvcConfig},
			NIC:  types.AnyNIC, Type: MsgReconfig, Payload: req,
		})
		eng.Run()
	}
	// Add node 100 to partition 1.
	send(ReconfigReq{Token: 1, Op: OpAddNode, Node: 100, Partition: 1})
	if len(acks) != 1 || !acks[0].OK || acks[0].Version != 2 {
		t.Fatalf("add-node ack: %+v", acks)
	}
	if _, ok := svc.Topology().Node(100); !ok {
		t.Fatal("node 100 not added")
	}
	if len(events) != 1 || events[0].Type != types.EvConfigChange {
		t.Fatalf("config change event missing: %v", events)
	}
	// Remove it again.
	send(ReconfigReq{Token: 2, Op: OpRemoveNode, Node: 100})
	if len(acks) != 2 || !acks[1].OK || acks[1].Version != 3 {
		t.Fatalf("remove-node ack: %+v", acks[1])
	}
	// Removing a server node must fail.
	send(ReconfigReq{Token: 3, Op: OpRemoveNode, Node: 0})
	if acks[2].OK {
		t.Fatal("removed a server node")
	}
	// Unknown op fails.
	send(ReconfigReq{Token: 4, Op: "explode"})
	if acks[3].OK {
		t.Fatal("unknown op accepted")
	}
	// Duplicate add fails.
	send(ReconfigReq{Token: 5, Op: OpAddNode, Node: 2, Partition: 0})
	if acks[4].OK {
		t.Fatal("duplicate add accepted")
	}
}

func TestIntrospectInventory(t *testing.T) {
	eng, net, hosts, _ := rig(t)
	hosts[3].SetOS("AIX/power")
	var ack *IntrospectAck
	net.Register(types.Addr{Node: 5, Service: "inv"}, func(m types.Message) {
		if a, ok := m.Payload.(IntrospectAck); ok {
			ack = &a
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 5, Service: "inv"},
		To:   types.Addr{Node: 0, Service: types.SvcConfig},
		NIC:  types.AnyNIC, Type: MsgIntrospect, Payload: IntrospectReq{Token: 9},
	})
	eng.Run()
	if ack == nil {
		t.Fatal("no answer")
	}
	if len(ack.Inventory) != 6 {
		t.Fatalf("inventory size = %d", len(ack.Inventory))
	}
	if ack.Inventory[3] != "AIX/power" {
		t.Fatalf("node 3 OS = %q", ack.Inventory[3])
	}
	if ack.Inventory[0] != "Linux/x86_64" {
		t.Fatalf("node 0 OS = %q", ack.Inventory[0])
	}
}
