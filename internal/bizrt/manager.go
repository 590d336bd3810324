package bizrt

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Manager message types.
const (
	MsgFrontends = "biz.frontends"     // client asks for the frontend replicas
	MsgFrontAck  = "biz.frontends.ack" //
	MsgLatency   = "biz.latency"       // client latency report (SLA tracking)
)

// LatencyReport carries one observed end-to-end latency to the manager.
type LatencyReport struct {
	App     string
	Latency time.Duration
	OK      bool
}

// FrontendsReq asks for the current frontend replica set.
type FrontendsReq struct {
	Token uint64
	App   string
}

// FrontendsAck answers with the frontend addresses.
type FrontendsAck struct {
	Token uint64
	Next  []types.Addr
}

func init() {
	codec.Register(291, FrontendsReq{})
	codec.Register(292, FrontendsAck{})
	codec.Register(293, LatencyReport{})
}

// ManagerSpec configures the runtime manager.
type ManagerSpec struct {
	Partition types.PartitionID // home partition (event-service access point)
	App       AppSpec
	// Candidates are the nodes instances may be placed on, in preference
	// order.
	Candidates []types.NodeID
	// CheckPeriod is how often placement is reconciled (restarting dead
	// replicas).
	CheckPeriod time.Duration
}

// placement tracks where a replica currently runs.
type placement struct {
	node    types.NodeID
	spawned bool
}

// Manager is the business runtime daemon: it places tier instances,
// watches node failures through the event service, re-places replicas off
// dead nodes, and pushes route tables so every tier balances over healthy
// downstream replicas only.
type Manager struct {
	spec ManagerSpec
	h    *simhost.Handle

	pending *rpc.Pending
	events  *events.Client
	place   map[string]*placement // by instance service name
	down    map[types.NodeID]bool
	rrNode  int

	// Restarts counts replica re-placements performed.
	Restarts int
	// SLA accounting from client latency reports.
	Requests      int
	SLAViolations int
	FailedReqs    int
	latencySum    time.Duration
}

// NewManager builds the runtime manager.
func NewManager(spec ManagerSpec) *Manager {
	if spec.CheckPeriod == 0 {
		spec.CheckPeriod = time.Second
	}
	return &Manager{
		spec:  spec,
		place: make(map[string]*placement),
		down:  make(map[types.NodeID]bool),
	}
}

// Service implements simhost.Process.
func (m *Manager) Service() string { return "bizmgr/" + m.spec.App.Name }

// Start implements simhost.Process.
func (m *Manager) Start(h *simhost.Handle) {
	m.h = h
	m.pending = rpc.NewPending(h)
	m.events = events.NewClient(h, rpc.Budget(2*time.Second), func() (types.Addr, bool) {
		return types.Addr{Node: h.Node(), Service: types.SvcES}, true
	})
	m.events.Subscribe([]types.EventType{types.EvNodeFail, types.EvNodeRecover}, -1, "",
		m.onEvent, nil)
	// Initial placement: spread replicas round-robin over candidates.
	for tier, ts := range m.spec.App.Tiers {
		for idx := 0; idx < ts.Replicas; idx++ {
			svc := instanceService(m.spec.App.Name, tier, idx)
			m.place[svc] = &placement{node: m.nextNode()}
		}
	}
	m.reconcile()
	h.Every(m.spec.CheckPeriod, m.reconcile)
}

// OnStop implements simhost.Process.
func (m *Manager) OnStop() {}

func (m *Manager) nextNode() types.NodeID {
	for i := 0; i < len(m.spec.Candidates); i++ {
		n := m.spec.Candidates[m.rrNode%len(m.spec.Candidates)]
		m.rrNode++
		if !m.down[n] {
			return n
		}
	}
	return m.spec.Candidates[0]
}

func (m *Manager) onEvent(ev types.Event) {
	switch ev.Type {
	case types.EvNodeFail:
		m.down[ev.Node] = true
		// Replicas on the dead node move immediately.
		for svc, pl := range m.place {
			if pl.node == ev.Node {
				pl.node = m.nextNode()
				pl.spawned = false
				m.Restarts++
				_ = svc
			}
		}
		m.reconcile()
	case types.EvNodeRecover:
		delete(m.down, ev.Node)
	}
}

// reconcile asserts every replica's placement by sending an idempotent
// spawn to its node's agent: "already present" confirms liveness, success
// means a dead replica was just restarted, and silence or failure marks it
// unhealthy until the next pass. Routes are re-pushed afterwards so tiers
// balance over healthy replicas only.
func (m *Manager) reconcile() {
	for svc, pl := range m.place {
		svc, pl := svc, pl
		if m.down[pl.node] {
			pl.spawned = false
			continue
		}
		tier, idx, ok := parseInstance(m.spec.App.Name, svc)
		if !ok {
			continue
		}
		tok := m.pending.New(2*time.Second,
			func(payload any) {
				ack := payload.(simhost.SpawnAck)
				alive := ack.OK || strings.Contains(ack.Err, "already present")
				if alive && !pl.spawned {
					pl.spawned = true
					m.pushRoutes()
				} else if !alive {
					pl.spawned = false
				}
			},
			func() { pl.spawned = false })
		m.h.Send(types.Addr{Node: pl.node, Service: types.SvcAgent}, types.AnyNIC,
			simhost.MsgSpawn, simhost.SpawnReq{
				Service: svc,
				Spec:    InstanceSpawnSpec{App: m.spec.App, Tier: tier, Idx: idx, Manager: m.h.Node()},
				Token:   tok,
			})
	}
	m.pushRoutes()
}

// InstanceSpawnSpec travels in instance spawn requests; cluster hosts get
// a factory for it via RegisterInstanceFactory.
type InstanceSpawnSpec struct {
	App     AppSpec
	Tier    int
	Idx     int
	Manager types.NodeID
}

func init() { codec.Register(294, InstanceSpawnSpec{}) }

// RegisterInstanceFactory installs the tier-instance factory on a host;
// instances of every app share it (the spawn spec carries the app).
func RegisterInstanceFactory(host *simhost.Host) {
	host.RegisterFactory("biz", func(spec any) simhost.Process {
		s, ok := spec.(InstanceSpawnSpec)
		if !ok {
			return nil
		}
		return NewInstance(s.App, s.Tier, s.Idx, s.Manager)
	})
}

func parseInstance(app, svc string) (tier, idx int, ok bool) {
	var gotApp string
	n, err := fmt.Sscanf(svc, "biz/%s", &gotApp)
	if n != 1 || err != nil {
		return 0, 0, false
	}
	parts := strings.Split(svc, "/")
	if len(parts) != 4 {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &tier); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[3], "%d", &idx); err != nil {
		return 0, 0, false
	}
	return tier, idx, true
}

// replicasOf lists the healthy replica addresses of a tier.
func (m *Manager) replicasOf(tier int) []types.Addr {
	var out []types.Addr
	ts := m.spec.App.Tiers[tier]
	for idx := 0; idx < ts.Replicas; idx++ {
		svc := instanceService(m.spec.App.Name, tier, idx)
		pl := m.place[svc]
		if pl == nil || m.down[pl.node] || !pl.spawned {
			continue
		}
		out = append(out, types.Addr{Node: pl.node, Service: svc})
	}
	return out
}

// pushRoutes tells every tier where the next tier's healthy replicas live.
func (m *Manager) pushRoutes() {
	for tier := 0; tier < len(m.spec.App.Tiers)-1; tier++ {
		routes := Routes{App: m.spec.App.Name, Tier: tier + 1, Next: m.replicasOf(tier + 1)}
		for _, addr := range m.replicasOf(tier) {
			m.h.Send(addr, types.AnyNIC, MsgRoutes, routes)
		}
	}
}

// Receive implements simhost.Process.
func (m *Manager) Receive(msg types.Message) {
	if m.events.Handle(msg) {
		return
	}
	switch msg.Type {
	case simhost.MsgSpawnAck:
		if ack, ok := msg.Payload.(simhost.SpawnAck); ok {
			m.pending.Resolve(ack.Token, ack)
		}
	case MsgFrontends:
		req, ok := msg.Payload.(FrontendsReq)
		if !ok || req.App != m.spec.App.Name {
			return
		}
		m.h.Send(msg.From, types.AnyNIC, MsgFrontAck, FrontendsAck{
			Token: req.Token, Next: m.replicasOf(0),
		})
	case MsgLatency:
		rep, ok := msg.Payload.(LatencyReport)
		if !ok || rep.App != m.spec.App.Name {
			return
		}
		m.Requests++
		if !rep.OK {
			m.FailedReqs++
			return
		}
		m.latencySum += rep.Latency
		if m.spec.App.SLA > 0 && rep.Latency > m.spec.App.SLA {
			m.SLAViolations++
		}
	}
}

// MeanLatency reports the average successful-request latency observed.
func (m *Manager) MeanLatency() time.Duration {
	n := m.Requests - m.FailedReqs
	if n <= 0 {
		return 0
	}
	return m.latencySum / time.Duration(n)
}

var _ simhost.Process = (*Manager)(nil)
