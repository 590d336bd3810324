package events

import (
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/types"
)

// Client gives a daemon the consumer/supplier side of the event service:
// subscribe with filters, receive real-time notifications, publish events.
//
// Subscribe/Unsubscribe run through a resilient rpc.Caller (re-resolved
// target per attempt, retries within the deadline budget); Publish and
// RegisterSupplier stay fire-and-forget like the kernel's own suppliers.
type Client struct {
	rt      rt.Runtime
	caller  *rpc.Caller
	target  func() (types.Addr, bool) // event-service instance to talk to
	onEvent map[uint64]func(types.Event)
}

// NewClient builds a client; target resolves the instance to address
// (normally the caller's partition ES; the federation makes any instance a
// valid access point), opts the retry behaviour.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	return &Client{rt: r, caller: rpc.NewCaller(r, opts), target: target,
		onEvent: make(map[uint64]func(types.Event))}
}

// targets adapts the single-instance resolver to the caller.
func (c *Client) targets() []types.Addr {
	if addr, ok := c.target(); ok {
		return []types.Addr{addr}
	}
	return nil
}

// Subscribe registers interest in the given event types. handler runs for
// every matching event; done (optional) receives the subscription ID or 0
// on failure. Pass partition -1 and service "" for no filtering.
func (c *Client) Subscribe(typesList []types.EventType, partition types.PartitionID, service string,
	handler func(types.Event), done func(id uint64)) {
	sub := Subscription{
		Consumer:        c.rt.Self(),
		Types:           typesList,
		PartitionFilter: partition,
		ServiceFilter:   service,
	}
	c.caller.Go(rpc.Call{
		Targets: c.targets,
		Send: func(token uint64, to types.Addr) {
			c.rt.Send(to, types.AnyNIC, MsgSubscribe, SubReq{Token: token, Sub: sub})
		},
		Done: func(payload any, err error) {
			if err != nil {
				if done != nil {
					done(0)
				}
				return
			}
			ack := payload.(SubAck)
			c.onEvent[ack.ID] = handler
			if done != nil {
				done(ack.ID)
			}
		},
	})
}

// Unsubscribe removes a registration. Best-effort: retried within the
// budget but no outcome is reported.
func (c *Client) Unsubscribe(id uint64) {
	delete(c.onEvent, id)
	c.caller.Go(rpc.Call{
		Targets: c.targets,
		Send: func(token uint64, to types.Addr) {
			c.rt.Send(to, types.AnyNIC, MsgUnsubscribe, UnsubReq{Token: token, ID: id})
		},
	})
}

// RegisterSupplier announces the event types this daemon produces.
func (c *Client) RegisterSupplier(produced []types.EventType) {
	if addr, ok := c.target(); ok {
		c.rt.Send(addr, types.AnyNIC, MsgSupplier, SupplierReq{Supplier: c.rt.Self(), Types: produced})
	}
}

// Publish pushes an event into the federation (fire-and-forget, like the
// kernel's internal suppliers).
func (c *Client) Publish(ev types.Event) {
	if addr, ok := c.target(); ok {
		c.rt.Send(addr, types.AnyNIC, MsgPublish, PubReq{Event: ev})
	}
}

// Handle routes event-service messages arriving at the owning daemon;
// it reports whether the message was consumed.
func (c *Client) Handle(msg types.Message) bool {
	switch msg.Type {
	case MsgSubAck:
		if ack, ok := msg.Payload.(SubAck); ok {
			c.caller.ResolveFrom(ack.Token, msg.From, ack)
		}
		return true
	case MsgUnsubAck:
		if ack, ok := msg.Payload.(UnsubAck); ok {
			c.caller.ResolveFrom(ack.Token, msg.From, ack)
		}
		return true
	case MsgEvent:
		if em, ok := msg.Payload.(EventMsg); ok {
			if h, found := c.onEvent[em.SubID]; found {
				h(em.Event)
			}
		}
		return true
	}
	return false
}
