package bulletin

import (
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/shard"
	"repro/internal/types"
)

// Client is the query/export interface to the bulletin federation, embedded
// in detectors (export) and user environments (query): GridView and PWS
// "collect cluster-wide performance data by calling a single interface of
// the data bulletin service federation" (paper §5.3).
//
// On top of the legacy single-access-point queries, the client speaks the
// sharded data plane: it keeps the newest shard map seen (piggybacked on
// every ack), routes acked writes to the key's primary, spreads keyed reads
// across the key's copy holders (rpc.Options.Spread rotates the pool), and
// treats a wrong-shard refusal as adopt-map-and-retry inside the rpc
// layer's budget — never a user-visible failure (ErrWrongShard documents
// the protocol; callers only ever see rpc sentinels on final failure).
type Client struct {
	rt     rt.Runtime
	caller *rpc.Caller
	target func() (types.Addr, bool)

	smap     shard.Map
	rr       int                    // read round-robin over a key's copy holders
	gets     map[uint64]*getCall    // in-flight keyed reads by token
	servedBy map[types.NodeID]uint64 // successful reads per answering peer
	rerouted uint64                 // wrong-shard refusals absorbed
}

// getCall is the per-call state of one keyed read.
type getCall struct {
	token     uint64
	rot       int  // which copy holder this read starts on
	escalated bool // replica not-found: retried against the primary
}

// NewClient builds a client; target resolves the bulletin instance used as
// the federation access point, opts the retry/breaker behaviour. The
// shard map's instances are added to the failover pool and reads are
// spread across them.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	c := &Client{rt: r, target: target,
		gets:     make(map[uint64]*getCall),
		servedBy: make(map[types.NodeID]uint64)}
	userPeers := opts.Peers
	opts.Spread = true
	opts.Peers = func() []types.Addr {
		out := c.smap.Addrs(types.SvcDB)
		if userPeers != nil {
			out = append(out, userPeers()...)
		}
		return out
	}
	c.caller = rpc.NewCaller(r, opts)
	return c
}

// Map returns the newest shard map the client has adopted.
func (c *Client) Map() shard.Map { return c.smap }

// ServedBy reports how many successful keyed reads and queries each peer
// answered — the observable read spread.
func (c *Client) ServedBy() map[types.NodeID]uint64 { return c.servedBy }

// Rerouted reports how many wrong-shard refusals were absorbed by
// adopt-and-retry.
func (c *Client) Rerouted() uint64 { return c.rerouted }

// targets adapts the single-access-point resolver to the caller.
func (c *Client) targets() []types.Addr {
	if addr, ok := c.target(); ok {
		return []types.Addr{addr}
	}
	return nil
}

// adopt keeps the newest piggybacked shard map.
func (c *Client) adopt(has bool, m shard.Map) {
	if has && m.Version > c.smap.Version {
		c.smap = m
	}
}

// ExportResources pushes a physical-resource sample (fire-and-forget).
func (c *Client) ExportResources(res types.ResourceStats) {
	if addr, ok := c.target(); ok {
		c.rt.Send(addr, types.AnyNIC, MsgPut, PutReq{Kind: "res", Res: res})
	}
}

// ExportApp pushes an application-state sample (fire-and-forget).
func (c *Client) ExportApp(app types.AppState) {
	if addr, ok := c.target(); ok {
		c.rt.Send(addr, types.AnyNIC, MsgPut, PutReq{Kind: "app", App: app})
	}
}

// put runs one acked data-plane write: targeted at the key's primary, with
// the ring successors as fallbacks (they refuse with the newer map, which
// reroutes the retry).
func (c *Client) put(req PutReq, done func(ok bool)) {
	key := shard.NodeKey(putNode(req))
	c.caller.Go(rpc.Call{
		Targets: func() []types.Addr {
			if c.smap.Empty() {
				return c.targets()
			}
			return c.smap.OwnerAddrs(key, types.SvcDB)
		},
		Send: func(token uint64, to types.Addr) {
			r := req
			r.Token = token
			r.MapVersion = c.smap.Version
			c.rt.Send(to, types.AnyNIC, MsgPut, r)
		},
		Done: func(payload any, err error) {
			if done != nil {
				done(err == nil)
			}
		},
	})
}

// PutRes writes a resource sample through the shard plane (acked,
// retried, rerouted on shard handoff). done is optional.
func (c *Client) PutRes(res types.ResourceStats, done func(ok bool)) {
	c.put(PutReq{Kind: "res", Res: res}, done)
}

// Get reads one node's rows from the shard plane. The read starts on a
// rotating copy holder (spreading load across replicas); a replica's
// not-found escalates to the primary once before the miss is believed.
func (c *Client) Get(node types.NodeID, done func(ack GetAck, ok bool)) {
	key := shard.NodeKey(node)
	gc := &getCall{rot: c.rr}
	c.rr++
	c.caller.Go(rpc.Call{
		Targets: func() []types.Addr {
			if c.smap.Empty() {
				return c.targets()
			}
			all := c.smap.OwnerAddrs(key, types.SvcDB)
			reps := c.smap.Replicas
			if reps > len(all) {
				reps = len(all)
			}
			if gc.escalated || reps < 2 {
				return all // primary first
			}
			r := gc.rot % reps
			out := make([]types.Addr, 0, len(all))
			out = append(out, all[r:reps]...)
			out = append(out, all[:r]...)
			out = append(out, all[reps:]...)
			return out
		},
		Send: func(token uint64, to types.Addr) {
			gc.token = token
			c.gets[token] = gc
			c.rt.Send(to, types.AnyNIC, MsgGet, GetReq{
				Token: token, Node: node, MapVersion: c.smap.Version,
			})
		},
		Done: func(payload any, err error) {
			delete(c.gets, gc.token)
			if err != nil {
				done(GetAck{}, false)
				return
			}
			done(payload.(GetAck), true)
		},
	})
}

// Query requests resource/application state at the given scope; done
// receives the answer, or ok=false once the deadline budget (retries
// included) is exhausted. Cluster-scope queries spread across the mapped
// instances — any one is a valid access point.
func (c *Client) Query(scope Scope, done func(ack QueryAck, ok bool)) {
	c.caller.Go(rpc.Call{
		Targets: func() []types.Addr {
			if scope == ScopeCluster && !c.smap.Empty() {
				return nil // the Peers pool (all mapped instances) serves
			}
			return c.targets()
		},
		Send: func(token uint64, to types.Addr) {
			c.rt.Send(to, types.AnyNIC, MsgQuery, QueryReq{
				Token: token, Scope: scope, MapVersion: c.smap.Version,
			})
		},
		Done: func(payload any, err error) {
			if err != nil {
				done(QueryAck{}, false)
				return
			}
			done(payload.(QueryAck), true)
		},
	})
}

// Handle routes bulletin replies arriving at the owning daemon; it reports
// whether the message was consumed.
func (c *Client) Handle(msg types.Message) bool {
	switch msg.Type {
	case MsgResult:
		if ack, ok := msg.Payload.(QueryAck); ok {
			c.adopt(ack.HasMap, ack.Map)
			if c.caller.ResolveFrom(ack.Token, msg.From, ack) {
				c.servedBy[msg.From.Node]++
			}
		}
		return true
	case MsgPutAck:
		if ack, ok := msg.Payload.(PutAck); ok {
			c.adopt(ack.HasMap, ack.Map)
			if ack.Wrong {
				// ErrWrongShard protocol: re-resolve under the adopted
				// map and retry; the refuser answered, so its breaker
				// is credited, not charged.
				c.rerouted++
				c.caller.Reject(ack.Token, msg.From)
				return true
			}
			c.caller.ResolveFrom(ack.Token, msg.From, ack)
		}
		return true
	case MsgGetAck:
		if ack, ok := msg.Payload.(GetAck); ok {
			c.adopt(ack.HasMap, ack.Map)
			if ack.Wrong {
				c.rerouted++
				c.caller.Reject(ack.Token, msg.From)
				return true
			}
			if gc, live := c.gets[ack.Token]; live && !ack.Found && !ack.Primary && !gc.escalated {
				// The replica may simply not have caught up: believe a
				// miss only from the primary.
				gc.escalated = true
				c.caller.Reject(ack.Token, msg.From)
				return true
			}
			if c.caller.ResolveFrom(ack.Token, msg.From, ack) {
				c.servedBy[msg.From.Node]++
			}
		}
		return true
	}
	return false
}

// Aggregate summarises snapshots into the cluster-wide averages GridView
// displays (paper Figure 6: average CPU, memory and swap usage).
type Aggregate struct {
	Nodes      int
	AvgCPUPct  float64
	AvgMemPct  float64
	AvgSwapPct float64
	Apps       int
}

// Aggregate computes usage averages over a query result.
func AggregateSnapshots(snaps []Snapshot) Aggregate {
	var agg Aggregate
	for _, s := range snaps {
		for _, r := range s.Res {
			agg.Nodes++
			agg.AvgCPUPct += r.CPUPct
			agg.AvgMemPct += r.MemPct
			agg.AvgSwapPct += r.SwapPct
		}
		agg.Apps += len(s.Apps)
	}
	if agg.Nodes > 0 {
		agg.AvgCPUPct /= float64(agg.Nodes)
		agg.AvgMemPct /= float64(agg.Nodes)
		agg.AvgSwapPct /= float64(agg.Nodes)
	}
	return agg
}
