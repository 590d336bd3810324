package checkpoint

import (
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/types"
)

// Client is the checkpoint interface embedded in upper-layer daemons
// (event service, PWS scheduler): the paper's model is that services save
// and delete their own state by calling the checkpoint service.
//
// Calls run through a resilient rpc.Caller: the instance is re-resolved on
// every attempt (services migrate) and rpc.Options.Peers can add the rest
// of the checkpoint federation as failover targets. Save/Delete versions
// are allocated once per logical call, so a retried save cannot supersede
// itself.
type Client struct {
	rpc.Client
	versions map[string]uint64 // per-owner monotonic save versions
}

// NewClient builds a client. target resolves the checkpoint instance at
// call time (it changes when services migrate), opts the retry behaviour.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	return &Client{Client: rpc.NewClient(r, opts, target), versions: make(map[string]uint64)}
}

// Save stores a snapshot; done (optional) reports success.
func (c *Client) Save(owner string, data []byte, done func(ok bool)) {
	c.versions[owner]++
	version := c.versions[owner]
	rpc.Ask(&c.Client, MsgSave, func(token uint64) any {
		return SaveReq{Token: token, Owner: owner, Version: version, Data: data}
	}, func(_ SaveAck, err error) {
		if done != nil {
			done(err == nil)
		}
	})
}

// Restore retrieves the newest snapshot; done receives (nil, false) when no
// instance holds one or the deadline budget is exhausted.
func (c *Client) Restore(owner string, done func(data []byte, found bool)) {
	rpc.Ask(&c.Client, MsgRestore, func(token uint64) any { return RestoreReq{Token: token, Owner: owner} },
		func(ack RestoreAck, err error) {
			if err != nil {
				done(nil, false)
				return
			}
			// Resume versioning above the restored state so later saves
			// supersede it.
			if ack.Seq > c.versions[owner] {
				c.versions[owner] = ack.Seq
			}
			done(ack.Data, ack.Found)
		})
}

// Delete removes an owner's snapshots federation-wide.
func (c *Client) Delete(owner string, done func(ok bool)) {
	c.versions[owner]++
	version := c.versions[owner]
	rpc.Ask(&c.Client, MsgDelete, func(token uint64) any {
		return DeleteReq{Token: token, Owner: owner, Version: version}
	}, func(_ DeleteAck, err error) {
		if done != nil {
			done(err == nil)
		}
	})
}
