// Package types defines the identifiers, addresses, resource statistics and
// message envelope shared by every Phoenix kernel service.
//
// The Phoenix kernel (Zhan & Sun, CLUSTER 2005) is organised around nodes
// grouped into partitions; every daemon in the system is reachable at an
// Addr, which names a node and a service on that node. Keeping these small
// value types in one leaf package lets the substrates (simulated network,
// host model) and the kernel services share a vocabulary without import
// cycles.
package types

import (
	"fmt"
	"strconv"
	"time"
)

// NodeID identifies a node in the cluster. IDs are dense, starting at 0.
type NodeID int

func (n NodeID) String() string { return "node" + strconv.Itoa(int(n)) }

// PartitionID identifies a cluster partition. In Phoenix the cluster is
// divided into partitions, each composed of one server node, at least one
// backup server node, and computing nodes.
type PartitionID int

func (p PartitionID) String() string { return "part" + strconv.Itoa(int(p)) }

// ProcID identifies a process within a simulated host's process table.
type ProcID int64

// JobID identifies a job submitted to a job-management user environment.
type JobID int64

// Service names used throughout the kernel. An Addr pairs one of these with
// a NodeID. They correspond 1:1 with the components of Figure 2 in the paper.
const (
	SvcAgent      = "agent" // per-node OS agent (probe target, process spawner)
	SvcWD         = "wd"    // watch daemon
	SvcGSD        = "gsd"   // group service daemon
	SvcES         = "es"    // event service
	SvcDB         = "db"    // data bulletin service
	SvcCkpt       = "ckpt"  // checkpoint service
	SvcConfig     = "cfg"   // configuration service
	SvcSecurity   = "sec"   // security service
	SvcPPM        = "ppm"   // parallel process management daemon
	SvcDetector   = "det"   // detector services (physical/app/node/network state)
	SvcPWS        = "pws"   // PWS job management scheduler
	SvcPBS        = "pbs"   // PBS baseline server
	SvcPBSMom     = "mom"   // PBS baseline per-node monitor
	SvcGridView   = "gview" // GridView monitoring module
	SvcJobRuntime = "job"   // a running job process (prefix; jobs use job/<id>)
	SvcGossip     = "gsp"   // epidemic dissemination (gossip) service
)

// Addr is the address of a service daemon: a node plus a service name.
type Addr struct {
	Node    NodeID
	Service string
}

func (a Addr) String() string { return fmt.Sprintf("%s/%s", a.Node, a.Service) }

// AnyNIC requests that the transport pick the first healthy network
// interface when sending a message.
const AnyNIC = -1

// Message is the envelope carried by every transport. Payloads are plain Go
// values inside the simulator; the codec package defines the wire format
// used for size accounting and for external tooling.
type Message struct {
	From    Addr
	To      Addr
	NIC     int    // NIC index the message travels over; AnyNIC = first healthy
	Type    string // message type tag, e.g. "hb", "probe", "publish"
	Payload any
	Sent    time.Time // stamped by the transport at send time
}

// ResourceStats is a snapshot of the physical resources of one node, as
// gathered by the physical-resource detector and stored in the data
// bulletin. Units follow the paper's monitoring figures: percentages for
// utilisation, bytes/s for I/O rates.
type ResourceStats struct {
	Node      NodeID
	CPUPct    float64 // CPU utilisation, 0..100
	MemPct    float64 // memory utilisation, 0..100
	SwapPct   float64 // swap utilisation, 0..100
	DiskIOBps float64 // disk I/O, bytes per second
	NetIOBps  float64 // network I/O, bytes per second
	Collected time.Time
	// RunQ is the node's runqueue depth: how many job processes the
	// node's process-management module holds in flight when the detector
	// samples. It complements CPUPct for the overload signal — a node
	// saturated by a just-dispatched slice shows RunQ > 0 before the CPU
	// sample catches up.
	RunQ int
}

// Util folds the snapshot into one scheduling-facing utilisation figure
// in [0,1]: the CPU fraction, floored at 1 when the runqueue holds work
// at all (an occupied node is not a placement target even while its CPU
// sample lags).
func (s ResourceStats) Util() float64 {
	u := s.CPUPct / 100
	if s.RunQ > 0 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// AppState describes one application (job process) tracked by the
// application-state detector: its living status, reported at its start
// and exit transitions.
type AppState struct {
	Node    NodeID
	Proc    ProcID
	Name    string
	Alive   bool
	Updated time.Time
}

// NodeState is the node-state detector's view of one node.
type NodeState int

const (
	NodeUnknown NodeState = iota
	NodeUp
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	default:
		return "unknown"
	}
}

// LinkState is the network-state detector's view of one node NIC.
type LinkState int

const (
	LinkUnknown LinkState = iota
	LinkUp
	LinkDown
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDown:
		return "down"
	default:
		return "unknown"
	}
}

// EventType tags events flowing through the event service. The kernel
// publishes failure/recovery events for nodes, networks, processes and
// services; user environments register the types they are interested in.
type EventType string

const (
	// Suspect events mark detection time: heartbeats (or liveness checks)
	// have gone silent but the fault is not yet classified. The matching
	// fail events mark the end of diagnosis.
	EvNodeSuspect    EventType = "node.suspect"
	EvNetSuspect     EventType = "net.suspect"
	EvServiceSuspect EventType = "service.suspect"
	EvMemberSuspect  EventType = "member.suspect"

	EvNodeFail    EventType = "node.fail"
	EvNodeRecover EventType = "node.recover"
	// Quarantine events mark flap dampening: a node whose suspicion
	// history crossed the flap threshold stays a federation member but is
	// withdrawn from scheduling and shard ownership until its flap score
	// decays (EvNodeStable).
	EvNodeQuarantine EventType = "node.quarantine"
	EvNodeStable     EventType = "node.stable"
	EvNetFail        EventType = "net.fail"
	EvNetRecover     EventType = "net.recover"
	EvProcFail       EventType = "proc.fail"
	EvProcRecover    EventType = "proc.recover"
	EvServiceFail    EventType = "service.fail"
	EvServiceRecover EventType = "service.recover"
	EvMemberFail     EventType = "member.fail"    // meta-group member failure
	EvMemberRecover  EventType = "member.recover" // meta-group member recovery
	EvJobStart       EventType = "job.start"
	EvJobFinish      EventType = "job.finish"
	EvJobFail        EventType = "job.fail"
	EvConfigChange   EventType = "config.change"
)

// Event is the payload published through the event service.
type Event struct {
	Type      EventType
	Node      NodeID
	Partition PartitionID
	Service   string
	NIC       int // for net.* events: which interface
	Detail    string
	Data      []byte // opaque payload for data-plane events
	When      time.Time
	Seq       uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%s node=%v part=%v svc=%s detail=%q", e.Type, e.Node, e.Partition, e.Service, e.Detail)
}

// FaultKind enumerates the three "unhealthy situations" of the paper's
// Tables 1-3: failure of a daemon process, failure of the node the daemon
// runs on, and failure of one network interface of that node.
type FaultKind int

const (
	FaultProcess FaultKind = iota
	FaultNode
	FaultNIC
)

func (k FaultKind) String() string {
	switch k {
	case FaultProcess:
		return "process"
	case FaultNode:
		return "node"
	case FaultNIC:
		return "network"
	default:
		return "?"
	}
}

// Role describes what a node does inside its partition.
type Role int

const (
	RoleCompute Role = iota
	RoleServer       // partition server node: hosts GSD, ES, DB, CKPT
	RoleBackup       // partition backup server node: migration target
	RoleMaster       // cluster master: hosts configuration + security services
)

func (r Role) String() string {
	switch r {
	case RoleServer:
		return "server"
	case RoleBackup:
		return "backup"
	case RoleMaster:
		return "master"
	default:
		return "compute"
	}
}
