// Package detector implements the Phoenix detector services that run on
// every node (paper §4.2): the physical-resource detector samples CPU,
// memory, swap, disk I/O and network I/O and exports them to the data
// bulletin (they are "fundamental for job management's schedulers"); the
// application-state detector reports the living status of application
// processes at their start and exit. The node- and network-state detectors
// are realised by the watch-daemon/GSD heartbeat path (package heartbeat),
// whose verdicts this package's consumers receive through the event
// service.
package detector

import (
	"slices"
	"strings"
	"time"

	"repro/internal/bulletin"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Spec travels inside agent spawn requests (detector respawn, node
// reseeding), so it must be wire-encodable.
func init() { codec.Register(240, Spec{}) }

// Spec configures a detector daemon.
type Spec struct {
	Partition      types.PartitionID
	GSDNode        types.NodeID // bulletin instance location (co-located with GSD)
	SampleInterval time.Duration
}

// Daemon is the per-node detector process.
type Daemon struct {
	spec        Spec
	h           *simhost.Handle
	bulletin    *bulletin.Client
	gsd         types.NodeID
	cancelWatch func()

	// Samples counts exported resource samples (observability for tests
	// and the monitoring benchmarks).
	Samples uint64
}

// New builds a detector daemon.
func New(spec Spec) *Daemon { return &Daemon{spec: spec, gsd: spec.GSDNode} }

// Service implements simhost.Process.
func (d *Daemon) Service() string { return types.SvcDetector }

// Start implements simhost.Process.
func (d *Daemon) Start(h *simhost.Handle) {
	d.h = h
	d.bulletin = bulletin.NewClient(h, rpc.Options{}, func() (types.Addr, bool) {
		return types.Addr{Node: d.gsd, Service: types.SvcDB}, true
	})
	// Application-state detector: export job lifecycle transitions as
	// they happen. A row needs no refresh; the bulletin ages it with the
	// node's resource row.
	d.cancelWatch = h.Host().Watch(func(ev simhost.ProcEvent) {
		if strings.HasPrefix(ev.Service, "job/") {
			d.exportApp(ev.PID, ev.Service, ev.Started)
		}
	})
	d.sample()
	h.Every(d.spec.SampleInterval, d.sample)
}

// OnStop implements simhost.Process.
func (d *Daemon) OnStop() {
	if d.cancelWatch != nil {
		d.cancelWatch()
	}
}

// Receive implements simhost.Process: the detector follows GSD migrations
// so its exports reach the current bulletin instance, and re-sends its
// running jobs' rows there, since the announced instance may be new and
// empty. It re-sends at once, for a bulletin restarted in place (announced
// once it runs), and again a sample interval later, for one still starting
// on a migrated server.
func (d *Daemon) Receive(msg types.Message) {
	if msg.Type != heartbeat.MsgGSDAnnounce {
		return
	}
	if a, ok := msg.Payload.(heartbeat.GSDAnnounce); ok && a.Partition == d.spec.Partition {
		d.gsd = a.GSDNode
		d.resendApps()
		d.h.After(d.spec.SampleInterval, d.resendApps)
	}
}

// resendApps exports a start row for each running job again.
func (d *Daemon) resendApps() {
	host := d.h.Host()
	for _, svc := range d.runningJobs() {
		d.exportApp(host.PID(svc), svc, true)
	}
}

func (d *Daemon) exportApp(pid types.ProcID, svc string, alive bool) {
	d.bulletin.ExportApp(types.AppState{
		Node: d.h.Node(), Proc: pid, Name: svc, Alive: alive, Updated: d.h.Now(),
	})
}

// runningJobs lists the node's running job processes in name order.
func (d *Daemon) runningJobs() []string {
	host := d.h.Host()
	var jobs []string
	for _, svc := range host.Procs() {
		if strings.HasPrefix(svc, "job/") && host.Running(svc) {
			jobs = append(jobs, svc)
		}
	}
	slices.Sort(jobs)
	return jobs
}

// sample exports one physical-resource reading.
func (d *Daemon) sample() {
	host := d.h.Host()
	usage := host.Usage()
	// Runqueue depth comes from the co-located PPM, the authority on
	// in-flight jobs (it tracks a load from the moment it is acked, before
	// the process shows in the table); fall back to the process-table count
	// when the node runs no PPM.
	if p, ok := host.Proc(types.SvcPPM).(*ppm.Daemon); ok {
		usage.RunQ = p.Jobs()
	} else {
		usage.RunQ = len(d.runningJobs())
	}
	d.bulletin.ExportResources(usage)
	d.Samples++
}

var _ simhost.Process = (*Daemon)(nil)
