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
	rpc.Client
	onEvent map[uint64]func(types.Event)
}

// NewClient builds a client; target resolves the instance to address
// (normally the caller's partition ES; the federation makes any instance a
// valid access point), opts the retry behaviour.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	return &Client{Client: rpc.NewClient(r, opts, target), onEvent: make(map[uint64]func(types.Event))}
}

// Subscribe registers interest in the given event types. handler runs for
// every matching event; done (optional) receives the subscription ID or 0
// on failure. Pass partition -1 and service "" for no filtering.
func (c *Client) Subscribe(typesList []types.EventType, partition types.PartitionID, service string,
	handler func(types.Event), done func(id uint64)) {
	sub := Subscription{
		Consumer:        c.Runtime().Self(),
		Types:           typesList,
		PartitionFilter: partition,
		ServiceFilter:   service,
	}
	rpc.Ask(&c.Client, MsgSubscribe, func(token uint64) any { return SubReq{Token: token, Sub: sub} },
		func(ack SubAck, err error) {
			if err == nil {
				c.onEvent[ack.ID] = handler
			}
			if done != nil {
				done(ack.ID)
			}
		})
}

// Unsubscribe removes a registration. Best-effort: retried within the
// budget but no outcome is reported.
func (c *Client) Unsubscribe(id uint64) {
	delete(c.onEvent, id)
	rpc.Ask[UnsubAck](&c.Client, MsgUnsubscribe,
		func(token uint64) any { return UnsubReq{Token: token, ID: id} }, nil)
}

// RegisterSupplier announces the event types this daemon produces.
func (c *Client) RegisterSupplier(produced []types.EventType) {
	c.Notify(MsgSupplier, SupplierReq{Supplier: c.Runtime().Self(), Types: produced})
}

// Publish pushes an event into the federation (fire-and-forget, like the
// kernel's internal suppliers).
func (c *Client) Publish(ev types.Event) {
	c.Notify(MsgPublish, PubReq{Event: ev})
}

// Handle routes event-service messages arriving at the owning daemon:
// call replies and subscribed events. It reports whether the message was
// consumed.
func (c *Client) Handle(msg types.Message) bool {
	if c.Client.Handle(msg) {
		return true
	}
	if msg.Type != MsgEvent {
		return false
	}
	if em, ok := msg.Payload.(EventMsg); ok {
		if h, found := c.onEvent[em.SubID]; found {
			h(em.Event)
		}
	}
	return true
}
