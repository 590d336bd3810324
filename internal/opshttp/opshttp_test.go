package opshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/wire"
)

func testStatus() Status {
	return Status{
		Node: 3, Partition: 1, Role: "server",
		Booted: true, Ready: true,
		GSDRole: GSDLeader, LeaderPartition: 1, LeaderNode: 3,
		MetaAlive: 2, MetaSize: 2,
		Procs:        []string{"agent", "det", "gsd", "wd"},
		BulletinRows: 4, Peers: 4, UptimeSeconds: 12.5,
		Wire: wire.Stats{TxDatagrams: 100, RxDatagrams: 90, Retransmits: 2},
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("wire.tx.datagrams").Add(17)
	reg.Gauge("queue.depth").Set(3.5)
	for i := 1; i <= 10; i++ {
		reg.Histogram("rpc.latency").Observe(time.Duration(i) * 100 * time.Millisecond)
	}
	reg.Histogram("never.observed") // empty: must not render NaN
	srv := httptest.NewServer(Handler(Config{Status: testStatus, Snapshot: reg.Snapshot}))
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content-type = %q, want %q", ct, PromContentType)
	}
	for _, want := range []string{
		"# TYPE wire_tx_datagrams_total counter",
		"wire_tx_datagrams_total 17",
		"# TYPE queue_depth gauge",
		"queue_depth 3.5",
		"# TYPE rpc_latency_seconds summary",
		`rpc_latency_seconds{quantile="0.5"} 0.5`,
		`rpc_latency_seconds{quantile="0.99"} 1`,
		"rpc_latency_seconds_count 10",
		"never_observed_seconds_count 0",
		"phoenix_uptime_seconds 12.5",
		`phoenix_node_info{node="3",partition="1",role="server",gsd_role="leader"} 1`,
		"phoenix_ready 1",
		"phoenix_gsd_leader 1",
		"phoenix_bulletin_rows 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "NaN") {
		t.Fatalf("/metrics rendered NaN:\n%s", body)
	}
	// The empty histogram must not emit quantile series.
	if strings.Contains(body, `never_observed_seconds{quantile`) {
		t.Fatal("empty histogram rendered quantiles")
	}
}

func TestPromNameSanitisation(t *testing.T) {
	for in, want := range map[string]string{
		"wire.tx.datagrams":   "wire_tx_datagrams",
		"wire.tx.msgs.wd.hb":  "wire_tx_msgs_wd_hb",
		"9lives":              "_9lives",
		"a-b c":               "a_b_c",
		"already_fine:metric": "already_fine:metric",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Label values must survive the exposition format's escaping rules.
func TestPromLabelEscaping(t *testing.T) {
	st := testStatus()
	st.Role = "ser\"ver\\x\nend"
	srv := httptest.NewServer(Handler(Config{Status: func() Status { return st }}))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	want := `role="ser\"ver\\x\nend"`
	if !strings.Contains(body, want) {
		t.Fatalf("escaped label %q not found in:\n%s", want, body)
	}
}

func TestHealthAndReadyTransitions(t *testing.T) {
	var booted, ready atomic.Bool
	status := func() Status {
		st := testStatus()
		st.Booted = booted.Load()
		st.Ready = ready.Load()
		st.ReadyReason = "meta-group leader unknown"
		return st
	}
	srv := httptest.NewServer(Handler(Config{Status: status}))
	defer srv.Close()

	if resp, _ := get(t, srv, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before boot = %d, want 503", resp.StatusCode)
	}
	if resp, body := get(t, srv, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, "meta-group leader unknown") {
		t.Fatalf("readyz before ready = %d %q, want 503 with reason", resp.StatusCode, body)
	}

	booted.Store(true)
	if resp, body := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz after boot = %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz booted-but-not-ready = %d, want 503", resp.StatusCode)
	}

	ready.Store(true)
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after ready = %d, want 200", resp.StatusCode)
	}
}

func TestStatuszRoundTrip(t *testing.T) {
	want := testStatus()
	srv := httptest.NewServer(Handler(Config{Status: func() Status { return want }}))
	defer srv.Close()
	resp, body := get(t, srv, "/statusz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var got Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if got.Node != want.Node || got.GSDRole != want.GSDRole ||
		got.Wire.TxDatagrams != want.Wire.TxDatagrams ||
		len(got.Procs) != len(want.Procs) || got.BulletinRows != want.BulletinRows {
		t.Fatalf("statusz round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// Every observability surface renders the same Status struct: the shard
// section a scrape sees at /statusz must agree with the phoenix_shard_*
// series at /metrics and with the status line — no surface reads kernel
// state or counters on its own.
func TestShardStatsConsistentAcrossSurfaces(t *testing.T) {
	st := testStatus()
	st.Shard = &bulletin.ShardStats{
		MapVersion: 3, Partitions: 4, Replicas: 2,
		PrimaryRows: 12, ReplicaRows: 7,
		GetsServed: 100, PutsServed: 40, WrongShard: 2, Forwarded: 5,
		DeltaBatchesOut: 9, DeltaRowsOut: 31, DeltasIn: 8,
		Syncs: 1, PendingRows: 3, PendingAgeMs: 120, MapChanges: 2,
		CacheHits: 30, CacheMisses: 10, CacheInvalidations: 4,
	}
	srv := httptest.NewServer(Handler(Config{Status: func() Status { return st }}))
	defer srv.Close()

	_, body := get(t, srv, "/statusz")
	var got Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if got.Shard == nil || *got.Shard != *st.Shard {
		t.Fatalf("statusz shard section:\ngot  %+v\nwant %+v", got.Shard, st.Shard)
	}

	_, prom := get(t, srv, "/metrics")
	for _, want := range []string{
		"phoenix_shard_map_version 3",
		"phoenix_shard_partitions 4",
		"phoenix_shard_replicas 2",
		"phoenix_shard_primary_rows 12",
		"phoenix_shard_replica_rows 7",
		"phoenix_shard_pending_rows 3",
		"phoenix_shard_replication_lag_ms 120",
		"phoenix_shard_gets_total 100",
		"phoenix_shard_puts_total 40",
		"phoenix_shard_wrong_shard_total 2",
		"phoenix_shard_forwarded_total 5",
		"phoenix_shard_delta_batches_out_total 9",
		"phoenix_shard_deltas_in_total 8",
		"phoenix_shard_syncs_total 1",
		"phoenix_bulletin_cache_hits_total 30",
		"phoenix_bulletin_cache_misses_total 10",
		"phoenix_bulletin_cache_invalidations_total 4",
		"phoenix_bulletin_cache_hit_ratio 0.75",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	line := st.Line()
	if !strings.Contains(line, "shard v3 12/7 rows, cache 0.75") {
		t.Fatalf("status line missing shard section: %s", line)
	}
	// A node without a bulletin reports no shard section anywhere.
	bare := testStatus()
	if strings.Contains(bare.Line(), "shard") {
		t.Fatalf("shard section on bulletin-less node: %s", bare.Line())
	}
	srv2 := httptest.NewServer(Handler(Config{Status: func() Status { return bare }}))
	defer srv2.Close()
	if _, prom2 := get(t, srv2, "/metrics"); strings.Contains(prom2, "phoenix_shard_") {
		t.Fatal("phoenix_shard_* series on bulletin-less node")
	}
}

func TestPprofGating(t *testing.T) {
	off := httptest.NewServer(Handler(Config{Status: testStatus}))
	defer off.Close()
	if resp, _ := get(t, off, "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without Pprof flag: %d", resp.StatusCode)
	}
	on := httptest.NewServer(Handler(Config{Status: testStatus, Pprof: true}))
	defer on.Close()
	if resp, _ := get(t, on, "/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", resp.StatusCode)
	}
}

func TestServerBindAndClose(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Status: testStatus})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("scrape bound server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New accepted a nil Status")
	}
}

func TestFetchAndGather(t *testing.T) {
	stA, stB := testStatus(), testStatus()
	stB.Node, stB.GSDRole = 1, GSDNone
	srvA := httptest.NewServer(Handler(Config{Status: func() Status { return stA }}))
	defer srvA.Close()
	srvB := httptest.NewServer(Handler(Config{Status: func() Status { return stB }}))
	defer srvB.Close()

	ctx := context.Background()
	got, err := Fetch(ctx, nil, strings.TrimPrefix(srvA.URL, "http://"))
	if err != nil {
		t.Fatalf("Fetch without scheme: %v", err)
	}
	if got.Node != stA.Node {
		t.Fatalf("fetched node %d, want %d", got.Node, stA.Node)
	}

	targets := map[types.NodeID]string{
		0: srvA.URL,
		1: srvB.URL,
		2: "127.0.0.1:1", // nothing listens here
	}
	reports := Gather(ctx, targets, time.Second)
	if len(reports) != 3 {
		t.Fatalf("gather returned %d reports, want 3", len(reports))
	}
	for i, r := range reports {
		if int(r.Node) != i {
			t.Fatalf("reports not sorted by node: %v", reports)
		}
	}
	if !reports[0].Reachable() || !reports[1].Reachable() || reports[2].Reachable() {
		t.Fatalf("reachability wrong: %+v", reports)
	}

	lead, ok := Leader(reports)
	if !ok || lead.Node != 0 {
		t.Fatalf("Leader = %+v, %v; want node 0", lead, ok)
	}

	var sb strings.Builder
	RenderTable(&sb, reports)
	table := sb.String()
	for _, want := range []string{"NODE", "leader", "DOWN", "meta-group leader: node 3"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestAdminAddrConvention(t *testing.T) {
	book := wire.NewBook()
	if err := book.Set(0, 0, "127.0.0.1:9000"); err != nil {
		t.Fatal(err)
	}
	if err := book.Set(1, 0, "10.0.0.7:9002"); err != nil {
		t.Fatal(err)
	}
	targets, err := Targets(book, DefaultAdminOffset)
	if err != nil {
		t.Fatal(err)
	}
	if targets[0] != "127.0.0.1:10000" || targets[1] != "10.0.0.7:10002" {
		t.Fatalf("targets = %v", targets)
	}
	if _, err := AdminAddr(book, 0, 70000); err == nil {
		t.Fatal("out-of-range admin port accepted")
	}
	if _, err := AdminAddr(book, 9, DefaultAdminOffset); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// A node that fails its first /statusz fetch but answers the retry must not
// show as DOWN in the gathered table.
func TestGatherRetriesBeforeMarkingDown(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // first fetch dies mid-flight
			}
			return
		}
		Handler(Config{Status: testStatus}).ServeHTTP(w, r)
	}))
	defer flaky.Close()

	reports := Gather(context.Background(), map[types.NodeID]string{0: flaky.URL}, time.Second)
	if len(reports) != 1 || !reports[0].Reachable() {
		t.Fatalf("flaky node marked DOWN despite retry: %+v", reports)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fetch attempts = %d, want 2 (original + one retry)", got)
	}
	if reports[0].Status.Node != 3 {
		t.Fatalf("retry did not deliver the snapshot: %+v", reports[0].Status)
	}
}

// The scheduler overview rides the same Status struct as everything
// else: the pws block at /statusz must agree with the phoenix_pws_* and
// phoenix_node_utilisation series at /metrics, the status line's pws
// section, and the POOL column of the admin table — and be absent on
// nodes that host no scheduler.
func TestPWSStatusConsistentAcrossSurfaces(t *testing.T) {
	st := testStatus()
	st.Util = 0.75
	st.PWS = &PWSStatus{
		Partition: 1, Shed: "refuse", ShedLevel: 3, Util: 0.97,
		ShedTotal: 11, AdmissionRejects: 7, Preempted: 2,
		LeasedNodes: 1, Failed: 1,
		Pools: []PoolStatus{
			{Name: "svc", Type: "service", Nodes: 1, Free: 0, Queued: 1, Running: 1, Leased: 1},
			{Name: "batch", Type: "", Nodes: 3, Free: 0, Queued: 5, Running: 2, Draining: 1},
		},
	}
	srv := httptest.NewServer(Handler(Config{Status: func() Status { return st }}))
	defer srv.Close()

	_, body := get(t, srv, "/statusz")
	var got Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if got.Util != st.Util {
		t.Fatalf("statusz util = %v, want %v", got.Util, st.Util)
	}
	if got.PWS == nil || got.PWS.Shed != "refuse" || got.PWS.ShedLevel != 3 ||
		got.PWS.ShedTotal != 11 || got.PWS.AdmissionRejects != 7 ||
		got.PWS.Preempted != 2 || got.PWS.LeasedNodes != 1 || got.PWS.Failed != 1 ||
		len(got.PWS.Pools) != 2 || got.PWS.Pools[0] != st.PWS.Pools[0] ||
		got.PWS.Pools[1] != st.PWS.Pools[1] {
		t.Fatalf("statusz pws section:\ngot  %+v\nwant %+v", got.PWS, st.PWS)
	}

	_, prom := get(t, srv, "/metrics")
	for _, want := range []string{
		"phoenix_node_utilisation 0.75",
		"phoenix_pws_shed_level 3",
		"phoenix_pws_cluster_utilisation 0.97",
		"phoenix_pws_leased_nodes 1",
		"phoenix_pws_failed_jobs 1",
		"phoenix_pws_shed_total 11",
		"phoenix_admission_rejects_total 7",
		"phoenix_pws_preempted_total 2",
		`phoenix_pws_pool_queued{pool="svc",type="service"} 1`,
		`phoenix_pws_pool_running{pool="svc",type="service"} 1`,
		`phoenix_pws_pool_queued{pool="batch",type=""} 5`,
		`phoenix_pws_pool_free{pool="batch",type=""} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	line := st.Line()
	for _, want := range []string{
		"util 0.75",
		"pws refuse u0.97 shed 11 rejects 7 leased 1",
		"svc[service] q1 r1",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("status line missing %q: %s", want, line)
		}
	}

	// Admin table: the scheduler node renders per-pool occupancy and the
	// raised ladder rung in POOL; a drained non-scheduler node renders
	// "draining"; a plain node renders "-".
	drained := testStatus()
	drained.Node, drained.Draining = 4, true
	plain := testStatus()
	plain.Node = 5
	reports := []NodeReport{
		{Node: 0, Status: st},
		{Node: 4, Status: drained},
		{Node: 5, Status: plain},
	}
	var sb strings.Builder
	RenderTable(&sb, reports)
	table := sb.String()
	for _, want := range []string{"POOL", "service:1/1", "L3:refuse", "draining"} {
		if !strings.Contains(table, want) {
			t.Errorf("admin table missing %q:\n%s", want, table)
		}
	}

	// A node without a scheduler reports no pws section anywhere.
	bare := testStatus()
	if strings.Contains(bare.Line(), "pws") {
		t.Fatalf("pws section on scheduler-less node: %s", bare.Line())
	}
	srv2 := httptest.NewServer(Handler(Config{Status: func() Status { return bare }}))
	defer srv2.Close()
	if _, prom2 := get(t, srv2, "/metrics"); strings.Contains(prom2, "phoenix_pws_") {
		t.Fatal("phoenix_pws_* series on scheduler-less node")
	}
}

// TestDetectStatusConsistentAcrossSurfaces checks that a GSD's two
// monitors — the partition monitor and the ring monitor watching its
// predecessor GSD — reach /statusz, /metrics, the status line and the
// admin table side by side.
func TestDetectStatusConsistentAcrossSurfaces(t *testing.T) {
	st := testStatus()
	st.Detect = &Detect{
		Suspects: 4, Refutations: 3, FailVerdicts: 1, FenceEpoch: 2, Takeovers: 1,
		Ring: heartbeat.Stats{Suspects: 7, Refutations: 5, FailVerdicts: 1},
	}
	srv := httptest.NewServer(Handler(Config{Status: func() Status { return st }}))
	defer srv.Close()

	_, body := get(t, srv, "/statusz")
	var got Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if got.Detect == nil || got.Detect.Ring != st.Detect.Ring || got.Detect.Suspects != 4 {
		t.Fatalf("statusz detect section: got %+v, want %+v", got.Detect, st.Detect)
	}

	_, prom := get(t, srv, "/metrics")
	for _, want := range []string{
		"phoenix_detect_suspects_total 4",
		"phoenix_detect_takeovers_total 1",
		"phoenix_detect_ring_suspects_total 7",
		"phoenix_detect_ring_refutations_total 5",
		"phoenix_detect_ring_fail_verdicts_total 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if line, want := st.Line(), "detect e2 s4 r3 f1 ring s7 r5 f1"; !strings.Contains(line, want) {
		t.Errorf("status line missing %q: %s", want, line)
	}
	var sb strings.Builder
	RenderTable(&sb, []NodeReport{{Node: 3, Status: st}})
	if want := "e2 s4/r3/f1 ring 7/5/1"; !strings.Contains(sb.String(), want) {
		t.Errorf("admin table missing %q:\n%s", want, sb.String())
	}
}
