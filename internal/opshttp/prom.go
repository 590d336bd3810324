package opshttp

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// PromContentType is the Prometheus text exposition format version the
// /metrics endpoint speaks.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitises a dotted metric name into the Prometheus name
// charset [a-zA-Z0-9_:]: every other rune becomes '_', and a leading
// digit gains a '_' prefix. "wire.tx.datagrams" → "wire_tx_datagrams".
func PromName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			sb.WriteByte('_')
			sb.WriteRune(r)
			continue
		}
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func promEscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteProm renders a metrics snapshot in the Prometheus text exposition
// format: counters with a _total suffix, gauges as-is, histograms as
// summaries in seconds. Empty histograms emit only _sum and _count —
// never a NaN quantile.
func WriteProm(w io.Writer, snap metrics.Snapshot) {
	for _, c := range snap.Counters {
		name := PromName(c.Name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(c.Value))
	}
	for _, g := range snap.Gauges {
		name := PromName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(g.Value))
	}
	for _, h := range snap.Hists {
		name := PromName(h.Name) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		if h.Count > 0 {
			fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", name, promFloat(h.P50.Seconds()))
			fmt.Fprintf(w, "%s{quantile=\"0.9\"} %s\n", name, promFloat(h.P90.Seconds()))
			fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", name, promFloat(h.P99.Seconds()))
		}
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.Sum.Seconds()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

// writeStatusProm renders the Status-derived phoenix_* series: identity
// as labels on phoenix_node_info, liveness/membership as plain gauges.
func writeStatusProm(w io.Writer, st Status) {
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	fmt.Fprintf(w, "# TYPE phoenix_node_info gauge\n")
	fmt.Fprintf(w, "phoenix_node_info{node=\"%d\",partition=\"%d\",role=\"%s\",gsd_role=\"%s\"} 1\n",
		st.Node, st.Partition, promEscapeLabel(st.Role), promEscapeLabel(st.GSDRole))
	fmt.Fprintf(w, "# TYPE phoenix_booted gauge\nphoenix_booted %s\n", b(st.Booted))
	fmt.Fprintf(w, "# TYPE phoenix_ready gauge\nphoenix_ready %s\n", b(st.Ready))
	fmt.Fprintf(w, "# TYPE phoenix_rejoining gauge\nphoenix_rejoining %s\n", b(st.Rejoining))
	fmt.Fprintf(w, "# TYPE phoenix_uptime_seconds gauge\nphoenix_uptime_seconds %s\n", promFloat(st.UptimeSeconds))
	fmt.Fprintf(w, "# TYPE phoenix_procs gauge\nphoenix_procs %d\n", len(st.Procs))
	fmt.Fprintf(w, "# TYPE phoenix_peers gauge\nphoenix_peers %d\n", st.Peers)
	if st.GSDRole != GSDNone && st.GSDRole != "" {
		fmt.Fprintf(w, "# TYPE phoenix_gsd_leader gauge\nphoenix_gsd_leader %s\n", b(st.GSDRole == GSDLeader))
		fmt.Fprintf(w, "# TYPE phoenix_meta_alive gauge\nphoenix_meta_alive %d\n", st.MetaAlive)
		fmt.Fprintf(w, "# TYPE phoenix_meta_size gauge\nphoenix_meta_size %d\n", st.MetaSize)
	}
	if st.BulletinRows >= 0 {
		fmt.Fprintf(w, "# TYPE phoenix_bulletin_rows gauge\nphoenix_bulletin_rows %d\n", st.BulletinRows)
	}
	if sh := st.Shard; sh != nil {
		gauge := func(name string, v interface{}) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, v)
		}
		counter := func(name string, v uint64) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
		}
		gauge("phoenix_shard_map_version", sh.MapVersion)
		gauge("phoenix_shard_partitions", sh.Partitions)
		gauge("phoenix_shard_replicas", sh.Replicas)
		gauge("phoenix_shard_primary_rows", sh.PrimaryRows)
		gauge("phoenix_shard_replica_rows", sh.ReplicaRows)
		gauge("phoenix_shard_pending_rows", sh.PendingRows)
		gauge("phoenix_shard_replication_lag_ms", sh.PendingAgeMs)
		counter("phoenix_shard_gets_total", sh.GetsServed)
		counter("phoenix_shard_puts_total", sh.PutsServed)
		counter("phoenix_shard_queries_total", sh.QueriesServed)
		counter("phoenix_shard_wrong_shard_total", sh.WrongShard)
		counter("phoenix_shard_forwarded_total", sh.Forwarded)
		counter("phoenix_shard_delta_batches_out_total", sh.DeltaBatchesOut)
		counter("phoenix_shard_delta_rows_out_total", sh.DeltaRowsOut)
		counter("phoenix_shard_deltas_in_total", sh.DeltasIn)
		counter("phoenix_shard_delta_dups_total", sh.DeltaDups)
		counter("phoenix_shard_delta_gaps_total", sh.DeltaGaps)
		counter("phoenix_shard_syncs_total", sh.Syncs)
		counter("phoenix_shard_map_changes_total", sh.MapChanges)
		counter("phoenix_bulletin_cache_hits_total", sh.CacheHits)
		counter("phoenix_bulletin_cache_misses_total", sh.CacheMisses)
		counter("phoenix_bulletin_cache_invalidations_total", sh.CacheInvalidations)
		gauge("phoenix_bulletin_cache_hit_ratio", promFloat(sh.CacheHitRatio()))
	}
	if gs := st.Gossip; gs != nil {
		gauge := func(name string, v interface{}) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, v)
		}
		counter := func(name string, v uint64) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
		}
		gauge("phoenix_gossip_fanout", gs.Fanout)
		gauge("phoenix_gossip_max_fanout", gs.MaxFanout)
		gauge("phoenix_gossip_fed_version", gs.FedVersion)
		gauge("phoenix_gossip_sources", gs.Sources)
		counter("phoenix_gossip_rounds_total", gs.Rounds)
		counter("phoenix_gossip_digests_tx_total", gs.DigestsTx)
		counter("phoenix_gossip_digests_rx_total", gs.DigestsRx)
		counter("phoenix_gossip_updates_tx_total", gs.UpdatesTx)
		counter("phoenix_gossip_updates_rx_total", gs.UpdatesRx)
		counter("phoenix_gossip_deltas_tx_total", gs.DeltasTx)
		counter("phoenix_gossip_deltas_rx_total", gs.DeltasRx)
		counter("phoenix_gossip_views_rx_total", gs.ViewsRx)
		counter("phoenix_gossip_gaps_total", gs.Gaps)
		counter("phoenix_gossip_truncated_total", gs.Truncated)
	}
	if d := st.Detect; d != nil {
		gauge := func(name string, v interface{}) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, v)
		}
		counter := func(name string, v uint64) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
		}
		gauge("phoenix_suspicion_level", promFloat(d.MaxSuspicion))
		gauge("phoenix_flap_score", promFloat(d.MaxFlap))
		gauge("phoenix_fence_epoch", d.FenceEpoch)
		gauge("phoenix_detect_suspect_nodes", len(d.Suspect))
		gauge("phoenix_detect_quarantined_nodes", len(d.Quarantined))
		gauge("phoenix_detect_failed_nodes", len(d.Failed))
		counter("phoenix_detect_suspects_total", d.Suspects)
		counter("phoenix_detect_refutations_total", d.Refutations)
		counter("phoenix_detect_indirect_acks_total", d.IndirectAcks)
		counter("phoenix_detect_fail_verdicts_total", d.FailVerdicts)
		counter("phoenix_detect_takeovers_total", d.Takeovers)
		counter("phoenix_detect_ring_suspects_total", d.Ring.Suspects)
		counter("phoenix_detect_ring_refutations_total", d.Ring.Refutations)
		counter("phoenix_detect_ring_fail_verdicts_total", d.Ring.FailVerdicts)
	}
	fmt.Fprintf(w, "# TYPE phoenix_node_utilisation gauge\nphoenix_node_utilisation %s\n", promFloat(st.Util))
	fmt.Fprintf(w, "# TYPE phoenix_draining gauge\nphoenix_draining %s\n", b(st.Draining))
	if p := st.PWS; p != nil {
		gauge := func(name string, v interface{}) {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, v)
		}
		counter := func(name string, v uint64) {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
		}
		gauge("phoenix_pws_shed_level", p.ShedLevel)
		gauge("phoenix_pws_cluster_utilisation", promFloat(p.Util))
		gauge("phoenix_pws_leased_nodes", p.LeasedNodes)
		gauge("phoenix_pws_failed_jobs", p.Failed)
		counter("phoenix_pws_shed_total", p.ShedTotal)
		counter("phoenix_admission_rejects_total", p.AdmissionRejects)
		counter("phoenix_pws_preempted_total", p.Preempted)
		for _, pool := range p.Pools {
			lbl := fmt.Sprintf("{pool=\"%s\",type=\"%s\"}", promEscapeLabel(pool.Name), promEscapeLabel(pool.Type))
			fmt.Fprintf(w, "# TYPE phoenix_pws_pool_queued gauge\nphoenix_pws_pool_queued%s %d\n", lbl, pool.Queued)
			fmt.Fprintf(w, "# TYPE phoenix_pws_pool_running gauge\nphoenix_pws_pool_running%s %d\n", lbl, pool.Running)
			fmt.Fprintf(w, "# TYPE phoenix_pws_pool_free gauge\nphoenix_pws_pool_free%s %d\n", lbl, pool.Free)
		}
	}
	fmt.Fprintf(w, "# TYPE phoenix_rpc_calls_total counter\nphoenix_rpc_calls_total %d\n", st.RPC.Calls)
	fmt.Fprintf(w, "# TYPE phoenix_rpc_retries_total counter\nphoenix_rpc_retries_total %d\n", st.RPC.Retries)
	fmt.Fprintf(w, "# TYPE phoenix_rpc_shed_total counter\nphoenix_rpc_shed_total %d\n", st.RPC.Shed)
	fmt.Fprintf(w, "# TYPE phoenix_rpc_failures_total counter\nphoenix_rpc_failures_total %d\n", st.RPC.Failures)
	fmt.Fprintf(w, "# TYPE phoenix_breaker_open gauge\nphoenix_breaker_open %d\n", st.BreakersOpen)
	if len(st.Wire.Planes) > 0 {
		fmt.Fprintf(w, "# TYPE phoenix_plane_healthy gauge\n")
		for _, p := range st.Wire.Planes {
			fmt.Fprintf(w, "phoenix_plane_healthy{plane=\"%d\"} %s\n", p.Plane, b(p.Healthy))
		}
		fmt.Fprintf(w, "# TYPE phoenix_lanes_down gauge\nphoenix_lanes_down %d\n", st.Wire.LanesDown)
	}
}
