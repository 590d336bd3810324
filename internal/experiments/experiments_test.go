package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// span bounds a measured phase, both ends inclusive.
type span struct{ lo, hi time.Duration }

func (s span) has(d time.Duration) bool { return d >= s.lo && d <= s.hi }

// TestRunFaultTables runs the nine scenarios of Tables 1-3 once and holds
// each cell, in a subtest of its own (Table1WDNetwork ... Table3ESProcess),
// to the paper's shape: detection takes one heartbeat interval; diagnosis
// is sub-second for process and NIC faults and equals the probe timeout
// for node faults; recovery is zero where the paper reports zero, small
// for process restarts, and includes the migration cost for node faults of
// server daemons. RowsComplete checks every table has its three rows, each
// with every phase stamped, and renders.
func TestRunFaultTables(t *testing.T) {
	const ns = time.Nanosecond
	exact := func(d time.Duration) span { return span{d, d} }
	unbounded := span{0, time.Duration(math.MaxInt64)}
	// Diagnose and recover bounds per daemon and fault.
	want := map[string]map[types.FaultKind][2]span{
		types.SvcWD: {
			types.FaultProcess: {{250 * time.Millisecond, time.Second}, {ns, 300 * time.Millisecond}}, // probe answer; respawn
			types.FaultNode:    {exact(2 * time.Second), exact(0)},                                    // partition probe timeout; a dead node's WD is not migrated
			types.FaultNIC:     {{ns, 10 * time.Millisecond}, exact(0)},                               // matrix analysis; one NIC of three is not fatal
		},
		types.SvcGSD: {
			types.FaultProcess: {{250 * time.Millisecond, 350 * time.Millisecond}, {2 * time.Second, 3 * time.Second}}, // meta probe; 2 s exec + rejoin
			types.FaultNode:    {exact(300 * time.Millisecond), {2 * time.Second, 4 * time.Second}},                    // meta probe timeout; migration
			types.FaultNIC:     {{ns, 10 * time.Millisecond}, exact(0)},
		},
		types.SvcES: {
			types.FaultProcess: {{ns, time.Millisecond}, {50 * time.Millisecond, 360 * time.Millisecond}}, // process-table lookup; restart + restore
			types.FaultNode:    {exact(300 * time.Millisecond), {2 * time.Second, 4 * time.Second}},
			types.FaultNIC:     {unbounded, exact(0)},
		},
	}
	faultName := map[types.FaultKind]string{
		types.FaultNIC: "Network", types.FaultNode: "Node", types.FaultProcess: "Process",
	}
	svcs := []string{types.SvcWD, types.SvcGSD, types.SvcES}
	tables := make([]FaultTable, len(svcs))
	for i, svc := range svcs {
		table, err := RunFaultTable(svc)
		if err != nil {
			t.Fatalf("%s: %v", svc, err)
		}
		tables[i] = table
	}

	t.Run("RowsComplete", func(t *testing.T) {
		for i, table := range tables {
			if len(table.Rows) != 3 {
				t.Errorf("%s rows = %d", svcs[i], len(table.Rows))
			}
			for _, row := range table.Rows {
				if !row.Measured.Complete() {
					t.Errorf("%s/%v: incomplete row %+v", svcs[i], row.Fault, row.Measured)
				}
			}
			if !strings.Contains(table.Render(), "Table") {
				t.Errorf("%s: render missing header", svcs[i])
			}
		}
	})

	for i, table := range tables {
		svc := svcs[i]
		for _, row := range table.Rows {
			in, cell := row.Measured, want[svc][row.Fault]
			name := fmt.Sprintf("Table%d%s%s", i+1, strings.ToUpper(svc), faultName[row.Fault])
			t.Run(name, func(t *testing.T) {
				if d := in.Detect(); d < 29*time.Second || d > 31*time.Second {
					t.Errorf("detect = %v, want one 30 s interval", d)
				}
				if g := in.Diagnose(); !cell[0].has(g) {
					t.Errorf("diagnose = %v, want %v..%v", g, cell[0].lo, cell[0].hi)
				}
				if r := in.Recover(); !cell[1].has(r) {
					t.Errorf("recover = %v, want %v..%v (paper %v)", r, cell[1].lo, cell[1].hi, row.PaperRecover)
				}
			})
		}
	}
}

func TestRunTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time compute experiment")
	}
	tbl, err := RunTable4(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Entries) != 4 {
		t.Fatalf("entries = %d", len(tbl.Entries))
	}
	for _, e := range tbl.Entries {
		if e.Row.Without.Residual > 16 || e.Row.With.Residual > 16 {
			t.Fatalf("cpus=%d residuals %g/%g", e.CPUs, e.Row.Without.Residual, e.Row.With.Residual)
		}
		if e.Row.EfficiencyPct < 25 {
			t.Fatalf("cpus=%d efficiency %.1f%% — daemons devastated the run", e.CPUs, e.Row.EfficiencyPct)
		}
	}
	if !strings.Contains(tbl.Render(), "Table 4") {
		t.Fatal("render missing header")
	}
}

func TestRunFig3Succession(t *testing.T) {
	res, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.Steps[0].Leader != 0 || res.Steps[0].Princess != 1 {
		t.Fatalf("boot roles: %+v", res.Steps[0])
	}
	if res.Steps[1].Leader != 1 || res.Steps[1].Princess != 2 {
		t.Fatalf("after leader death: %+v", res.Steps[1])
	}
	if res.Steps[2].Leader != 1 || res.Steps[2].Princess != 3 {
		t.Fatalf("after princess death: %+v", res.Steps[2])
	}
	// Every failed member recovered: 0 and 2 migrated to their backup
	// nodes and rejoined as ordinary members, 3 was restarted in place —
	// and since 3 held the Princess role when its process died, member 4
	// took it over. The full ring is alive again.
	if res.Steps[3].Alive != 5 {
		t.Fatalf("after member restart: %+v", res.Steps[3])
	}
	if res.Steps[3].Leader != 1 || res.Steps[3].Princess != 4 {
		t.Fatalf("final roles: %+v", res.Steps[3])
	}
}

func TestRunFig5Federation(t *testing.T) {
	res, err := RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	if !res.CoverEveryone {
		t.Fatal("not every access point answered cluster-wide")
	}
	if len(res.DarkMissing) != 1 || res.DarkMissing[0] != types.PartitionID(1) {
		t.Fatalf("dark partitions = %v, want [part1]", res.DarkMissing)
	}
	if !res.RecoveredFull {
		t.Fatal("federation did not recover full coverage")
	}
}

func TestRunFig6Scalability(t *testing.T) {
	res, err := RunFig6([]int{64, 136})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Covered != p.Nodes {
			t.Fatalf("%d nodes: covered %d", p.Nodes, p.Covered)
		}
		if p.KernelMsgs <= 0 {
			t.Fatalf("%d nodes: kernel msgs %.2f", p.Nodes, p.KernelMsgs)
		}
	}
	// Scalability claim: per-node kernel traffic roughly flat (within 2x)
	// as the cluster grows.
	a, b := res.Points[0].KernelMsgs, res.Points[1].KernelMsgs
	if b > 2*a {
		t.Fatalf("per-node traffic grew superlinearly: %.2f -> %.2f", a, b)
	}
}

func TestRunPWSvsPBS(t *testing.T) {
	res, err := RunPWSvsPBS()
	if err != nil {
		t.Fatal(err)
	}
	if res.PBSPollMsgs <= res.PWSMonMsgs {
		t.Fatalf("PBS polling (%.0f msgs) should exceed PWS monitoring (%.0f msgs)",
			res.PBSPollMsgs, res.PWSMonMsgs)
	}
	if res.PWSCompleted != res.JobsSubmitted {
		t.Fatalf("PWS completed %d/%d after scheduler-node death", res.PWSCompleted, res.JobsSubmitted)
	}
	if res.PBSCompleted >= res.JobsSubmitted {
		t.Fatalf("PBS completed %d/%d — it has no HA and should lose jobs", res.PBSCompleted, res.JobsSubmitted)
	}
	if res.LeaseMakespan >= res.NoLeaseMakespan {
		t.Fatalf("leasing did not help: %v vs %v", res.LeaseMakespan, res.NoLeaseMakespan)
	}
	if !strings.Contains(res.Render(), "PWS") {
		t.Fatal("render missing header")
	}
}
