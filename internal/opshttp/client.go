package opshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// DefaultAdminOffset is the conventional distance between a node's
// plane-0 UDP port and its admin HTTP port: a node whose plane 0 listens
// on 127.0.0.1:9000 serves admin on 127.0.0.1:10000. phoenix-node
// (-admin auto) and phoenix-admin share the convention, so one address
// book describes both the data and the operations plane.
const DefaultAdminOffset = 1000

// AdminAddr derives a node's admin HTTP address from its plane-0 wire
// endpoint: same host, port shifted by offset.
func AdminAddr(book *wire.Book, node types.NodeID, offset int) (string, error) {
	ep, ok := book.Endpoint(node, 0)
	if !ok {
		return "", fmt.Errorf("opshttp: book has no plane-0 endpoint for %v", node)
	}
	port := ep.Port + offset
	if port <= 0 || port > 65535 {
		return "", fmt.Errorf("opshttp: admin port %d for %v out of range", port, node)
	}
	host := ep.IP.String()
	if host == "<nil>" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// Targets derives every book node's admin address.
func Targets(book *wire.Book, offset int) (map[types.NodeID]string, error) {
	out := make(map[types.NodeID]string)
	for _, n := range book.Nodes() {
		addr, err := AdminAddr(book, n, offset)
		if err != nil {
			return nil, err
		}
		out[n] = addr
	}
	return out, nil
}

// Fetch retrieves one node's /statusz snapshot. base is "host:port" or
// "http://host:port".
func Fetch(ctx context.Context, client *http.Client, base string) (Status, error) {
	if client == nil {
		client = http.DefaultClient
	}
	url := base
	if len(url) < 7 || url[:7] != "http://" {
		url = "http://" + url
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statusz", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return Status{}, fmt.Errorf("opshttp: %s/statusz: %s: %s", base, resp.Status, body)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("opshttp: %s/statusz: %w", base, err)
	}
	return st, nil
}

// NodeReport is one node's row in a cluster gather: its snapshot, or the
// error that prevented one.
type NodeReport struct {
	Node   types.NodeID `json:"node"`
	Target string       `json:"target"`
	Status Status       `json:"status"`
	Err    string       `json:"err,omitempty"`
}

// Reachable reports whether the gather got a snapshot from the node.
func (r NodeReport) Reachable() bool { return r.Err == "" }

// GatherWorkers caps the concurrent /statusz fetches of one Gather. An
// unbounded fan-out scales goroutines, sockets and ephemeral ports with
// the cluster size; at the scales the gossip plane targets (hundreds of
// nodes) that exhausts file descriptors on the admin host, so the gather
// runs through a fixed worker pool instead.
const GatherWorkers = 32

// Gather fans out to every target's admin server through a bounded worker
// pool (GatherWorkers), each request bounded by timeout, and returns one
// report per node sorted by node ID. A node that misses its first fetch
// gets one retry after a short jittered backoff — a node busy with a
// recovery or a dropped datagram must not show as DOWN in the cluster
// table — and only the retry's failure marks the row unreachable.
// Unreachable nodes are reported, not dropped — a dead node is exactly
// what a cluster table must show.
func Gather(ctx context.Context, targets map[types.NodeID]string, timeout time.Duration) []NodeReport {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	type job struct {
		node   types.NodeID
		target string
	}
	jobs := make(chan job)
	reports := make([]NodeReport, 0, len(targets))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	workers := GatherWorkers
	if len(targets) < workers {
		workers = len(targets)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rep := NodeReport{Node: j.node, Target: j.target}
				st, err := fetchOnce(ctx, client, j.target, timeout)
				if err != nil {
					// Jitter desynchronises the retries of many rows so they do
					// not stampede a node that shed the first wave.
					backoff := 100*time.Millisecond + time.Duration(rand.Int63n(int64(100*time.Millisecond)))
					select {
					case <-ctx.Done():
					case <-time.After(backoff):
						st, err = fetchOnce(ctx, client, j.target, timeout)
					}
				}
				if err != nil {
					rep.Err = err.Error()
				} else {
					rep.Status = st
				}
				mu.Lock()
				reports = append(reports, rep)
				mu.Unlock()
			}
		}()
	}
	for node, target := range targets {
		jobs <- job{node: node, target: target}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(reports, func(i, j int) bool { return reports[i].Node < reports[j].Node })
	return reports
}

// fetchOnce is one bounded /statusz attempt with its own deadline, so a
// retry starts with a fresh budget instead of the first attempt's remains.
func fetchOnce(ctx context.Context, client *http.Client, target string, timeout time.Duration) (Status, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return Fetch(rctx, client, target)
}

// detectIndex folds every reachable GSD's Detect block into per-node
// lifecycle lookups, so the table can label a row with what the kernel's
// failure detection concluded about it — a node the gather cannot reach
// may be merely suspect, quarantined for flapping, or diagnosed failed
// under a specific fencing epoch.
type detectIndex struct {
	suspect     map[int]bool
	quarantined map[int]bool
	failed      map[int]uint64 // node -> fencing epoch of the diagnosing GSD
}

func indexDetect(reports []NodeReport) detectIndex {
	ix := detectIndex{
		suspect:     make(map[int]bool),
		quarantined: make(map[int]bool),
		failed:      make(map[int]uint64),
	}
	for _, r := range reports {
		if !r.Reachable() || r.Status.Detect == nil {
			continue
		}
		d := r.Status.Detect
		for _, n := range d.Suspect {
			ix.suspect[n] = true
		}
		for _, n := range d.Quarantined {
			ix.quarantined[n] = true
		}
		for _, n := range d.Failed {
			if e, ok := ix.failed[n]; !ok || d.FenceEpoch > e {
				ix.failed[n] = d.FenceEpoch
			}
		}
	}
	return ix
}

// label classifies one node from the detection index; ok is false when no
// GSD reported anything about it.
func (ix detectIndex) label(node int) (string, bool) {
	if epoch, ok := ix.failed[node]; ok {
		return fmt.Sprintf("failed(epoch %d)", epoch), true
	}
	if ix.quarantined[node] {
		return "quarantined", true
	}
	if ix.suspect[node] {
		return "suspect", true
	}
	return "", false
}

// RenderTable writes the cluster table phoenix-admin prints — the
// real-network counterpart of the paper's GridView: one row per node
// with role, GSD standing, membership, liveness and wire fault counts.
// The STATUS column grades unreachable nodes by what the cluster's
// failure detection knows: suspect, quarantined, or failed(epoch N).
func RenderTable(w io.Writer, reports []NodeReport) {
	ix := indexDetect(reports)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tPART\tROLE\tGSD\tMETA\tSHARD\tGOSSIP\tDETECT\tPOOL\tREADY\tPROCS\tTX-DG\tRX-DG\tRETX\tDUP\tFAULTS\tERRS\tUPTIME\tSTATUS")
	leaders := 0
	for _, r := range reports {
		if !r.Reachable() {
			status := fmt.Sprintf("DOWN (%s)", r.Err)
			if lbl, ok := ix.label(int(r.Node)); ok {
				status = fmt.Sprintf("DOWN: %s (%s)", lbl, r.Err)
			}
			fmt.Fprintf(tw, "%d\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t%s\n", int(r.Node), status)
			continue
		}
		st := r.Status
		meta := "-"
		if st.GSDRole != GSDNone && st.GSDRole != "" {
			meta = fmt.Sprintf("%d/%d", st.MetaAlive, st.MetaSize)
			if st.GSDRole == GSDLeader {
				leaders++
			}
		}
		// Shard ownership of the hosted bulletin instance: map version,
		// primary/replica row counts and cache hit ratio.
		sh := "-"
		if st.Shard != nil {
			sh = fmt.Sprintf("v%d:%d/%d c%.2f", st.Shard.MapVersion,
				st.Shard.PrimaryRows, st.Shard.ReplicaRows, st.Shard.CacheHitRatio())
		}
		// Gossip standing of the hosted dissemination instance: rounds
		// run, federation view version known, deltas learned, repair gaps.
		gs := "-"
		if g := st.Gossip; g != nil {
			gs = fmt.Sprintf("r%d:fv%d d%d g%d", g.Rounds, g.FedVersion, g.DeltasRx, g.Gaps)
		}
		// Detection standing of the hosted GSD: fencing epoch, then
		// cumulative suspects/refutations/fail-verdicts of its partition
		// monitor and of its ring monitor.
		det := "-"
		if d := st.Detect; d != nil {
			det = fmt.Sprintf("e%d s%d/r%d/f%d ring %d/%d/%d", d.FenceEpoch,
				d.Suspects, d.Refutations, d.FailVerdicts,
				d.Ring.Suspects, d.Ring.Refutations, d.Ring.FailVerdicts)
		}
		// Scheduler standing on the node hosting PWS: per-pool
		// queued/running and the shed ladder rung when raised. Every other
		// node shows its drain mark or "-".
		pool := "-"
		if p := st.PWS; p != nil {
			var sb strings.Builder
			for _, ps := range p.Pools {
				if sb.Len() > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%s:%d/%d", ps.Type, ps.Queued, ps.Running)
			}
			if p.ShedLevel > 0 {
				fmt.Fprintf(&sb, " L%d:%s", p.ShedLevel, p.Shed)
			}
			pool = sb.String()
		} else if st.Draining {
			pool = "draining"
		}
		// A reachable node may still be degraded in the kernel's eyes.
		status := "ok"
		if lbl, ok := ix.label(st.Node); ok {
			status = lbl
		}
		fmt.Fprintf(tw, "%d\tp%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0fs\t%s\n",
			st.Node, st.Partition, st.Role, st.GSDRole, meta, sh, gs, det, pool, st.Ready, len(st.Procs),
			st.Wire.TxDatagrams, st.Wire.RxDatagrams, st.Wire.Retransmits,
			st.Wire.DupDrops, st.Wire.PeerFaults, st.Wire.Errors, st.UptimeSeconds, status)
	}
	tw.Flush()
	if lead, ok := Leader(reports); ok {
		fmt.Fprintf(w, "meta-group leader: node %d (partition %d)\n", lead.Status.Node, lead.Status.Partition)
	} else {
		fmt.Fprintln(w, "meta-group leader: unknown (no reachable GSD reports leader)")
	}
	if leaders > 1 {
		fmt.Fprintf(w, "WARNING: %d nodes claim the leader role\n", leaders)
	}
}

// Leader picks the report whose node hosts the meta-group leader GSD.
func Leader(reports []NodeReport) (NodeReport, bool) {
	for _, r := range reports {
		if r.Reachable() && r.Status.GSDRole == GSDLeader {
			return r, true
		}
	}
	return NodeReport{}, false
}
