package rpc

import (
	"repro/internal/rt"
	"repro/internal/types"
)

// Client is the calling side of one kernel service: the runtime it sends
// from, the Caller its calls run through, and the resolver of the service
// instance to address. Service clients embed it and build their methods
// from Ask; its Handle resolves their replies.
type Client struct {
	rt     rt.Runtime
	caller *Caller
	target func() (types.Addr, bool)
}

// NewClient builds a client; target resolves the service instance at call
// time (services migrate with their partition's GSD), opts the
// retry/breaker behaviour.
func NewClient(r rt.Runtime, opts Options, target func() (types.Addr, bool)) Client {
	return Client{rt: r, caller: NewCaller(r, opts), target: target}
}

// Runtime is the runtime the client sends from.
func (c *Client) Runtime() rt.Runtime { return c.rt }

// Targets is the call target list: the resolved instance, or none.
func (c *Client) Targets() []types.Addr {
	if addr, ok := c.target(); ok {
		return []types.Addr{addr}
	}
	return nil
}

// Notify sends a fire-and-forget message to the resolved instance.
func (c *Client) Notify(typ string, payload any) {
	if addr, ok := c.target(); ok {
		c.rt.Send(addr, types.AnyNIC, typ, payload)
	}
}

// Handle resolves the call msg answers (see Caller.Handle).
func (c *Client) Handle(msg types.Message) bool { return c.caller.Handle(msg) }

// Ask runs one resilient call to c's service: every attempt sends req(token)
// as a typ message to the resolved instance, and done (optional) receives
// the typed reply, or the zero A and the call's error.
func Ask[A Reply](c *Client, typ string, req func(token uint64) any, done func(A, error)) {
	call := Call{
		Targets: c.Targets,
		Send: func(token uint64, to types.Addr) {
			c.rt.Send(to, types.AnyNIC, typ, req(token))
		},
	}
	if done != nil {
		call.Done = func(payload any, err error) {
			a, ok := payload.(A)
			if !ok && err == nil {
				err = ErrBadReply
			}
			done(a, err)
		}
	}
	c.caller.Go(call)
}
