package config

import (
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/types"
)

// Client is the calling side of the configuration service, used by admin
// tools and daemons that need the live topology. There is exactly one
// config-service instance (on the master node), so there is no federation
// to fail over to — but calls still run through a resilient rpc.Caller:
// retries within the deadline budget ride out lost datagrams and the
// master's breaker stops a partitioned client from re-dialing it forever.
// Its Handle resolves the service's replies.
type Client struct{ rpc.Client }

// NewClient builds a client; target resolves the config service's address,
// opts the retry/breaker behaviour.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	return &Client{rpc.NewClient(r, opts, target)}
}

// Get fetches the current topology; ok=false when the budget is exhausted.
func (c *Client) Get(done func(topo *Topology, ok bool)) {
	rpc.Ask(&c.Client, MsgGet, func(token uint64) any { return GetReq{Token: token} },
		func(ack GetAck, err error) { done(ack.Topology, err == nil) })
}

// Introspect runs the self-introspection probe sweep; ok=false when the
// budget is exhausted. Introspection itself probes every agent with
// PartitionProbeTimeout, so the budget should comfortably exceed that.
func (c *Client) Introspect(done func(ack IntrospectAck, ok bool)) {
	rpc.Ask(&c.Client, MsgIntrospect, func(token uint64) any { return IntrospectReq{Token: token} },
		func(ack IntrospectAck, err error) { done(ack, err == nil) })
}

// Reconfig applies a dynamic reconfiguration (OpAddNode / OpRemoveNode);
// ok=false when the budget is exhausted. The token is reused across
// retries, so the service can treat a retried request as the same one.
func (c *Client) Reconfig(op string, node types.NodeID, partition types.PartitionID,
	done func(ack ReconfigAck, ok bool)) {
	rpc.Ask(&c.Client, MsgReconfig, func(token uint64) any {
		return ReconfigReq{Token: token, Op: op, Node: node, Partition: partition}
	}, func(ack ReconfigAck, err error) { done(ack, err == nil) })
}
