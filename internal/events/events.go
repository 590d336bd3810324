// Package events implements the Phoenix event service, the communication
// channel of the kernel (paper §4.2): suppliers register the event types
// they produce, consumers register the types they are interested in, and
// the service filters and delivers events in real time. Instances form a
// federation (§4.4): subscriptions replicate to every instance, so an event
// published at any instance reaches all matching consumers cluster-wide,
// and a restarted instance retrieves its registrations from the checkpoint
// service.
//
// The federation's event fanout is a complete graph — one message per
// peer instance per publish — so the ES carries only the low-rate control
// events; the high-volume bulletin delta batches travel through the
// gossip dissemination plane (internal/gossip) instead.
package events

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/federation"
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wirebin"
)

// Message types of the event service.
const (
	MsgSubscribe   = "es.sub"
	MsgSubAck      = "es.sub.ack"
	MsgUnsubscribe = "es.unsub"
	MsgUnsubAck    = "es.unsub.ack"
	MsgSupplier    = "es.supplier"
	MsgPublish     = "es.pub"
	MsgEvent       = "es.event"
	MsgSubRepl     = "es.sub.repl"
	MsgUnsubRepl   = "es.unsub.repl"
	MsgReady       = "es.ready" // sent to the local GSD once restored
)

// Subscription is one consumer registration. A zero PartitionFilter
// (-1) matches every partition; an empty ServiceFilter matches every
// service.
type Subscription struct {
	ID              uint64
	Consumer        types.Addr
	Types           []types.EventType
	PartitionFilter types.PartitionID // -1 = any
	ServiceFilter   string            // "" = any
}

// Matches reports whether an event passes the subscription's filters.
func (s Subscription) Matches(ev types.Event) bool {
	ok := false
	for _, t := range s.Types {
		if t == ev.Type {
			ok = true
			break
		}
	}
	if !ok {
		return false
	}
	if s.PartitionFilter >= 0 && ev.Partition != s.PartitionFilter {
		return false
	}
	if s.ServiceFilter != "" && ev.Service != s.ServiceFilter {
		return false
	}
	return true
}

// SubReq registers a consumer.
type SubReq struct {
	Token uint64
	Sub   Subscription // ID assigned by the service
}

// SubAck confirms a registration.
type SubAck struct {
	Token uint64
	ID    uint64
}

// UnsubReq removes a registration by ID.
type UnsubReq struct {
	Token uint64
	ID    uint64
}

// UnsubAck confirms removal.
type UnsubAck struct{ Token uint64 }

// SupplierReq registers an event supplier and the types it produces
// (bookkeeping, per the paper's interface).
type SupplierReq struct {
	Supplier types.Addr
	Types    []types.EventType
}

// PubReq publishes an event.
type PubReq struct{ Event types.Event }

// EventMsg delivers an event to a consumer.
type EventMsg struct {
	SubID uint64
	Event types.Event
}

// ReadyMsg tells the local GSD a restarted instance has finished restoring
// from its checkpoint.
type ReadyMsg struct{ Service string }

// Reply tokens (rpc.Reply): the events client resolves these.
func (a SubAck) ReplyToken() uint64   { return a.Token }
func (a UnsubAck) ReplyToken() uint64 { return a.Token }

func init() {
	wirebin.Intern(
		"es.sub", "es.unsub", "es.pub", "es.event", "es.supplier", "es.ready",
	)
	codec.Register(64, PubReq{})
	codec.Register(65, EventMsg{})
	codec.Register(66, SubReq{})
	codec.Register(67, SubAck{})
	codec.Register(68, UnsubReq{})
	codec.Register(69, UnsubAck{})
	codec.Register(70, SupplierReq{})
	codec.Register(71, ReadyMsg{})
	codec.Register(72, state{})
}

// state is the checkpointed portion of an instance.
type state struct {
	NextSubID uint64
	NextSeq   uint64
	Subs      []Subscription
	Suppliers []SupplierReq
}

// Service is one event-service instance.
type Service struct {
	part    types.PartitionID
	view    federation.View
	ckptTO  time.Duration
	restart bool // restore from checkpoint before serving

	rt    rt.Runtime
	ckpt  *checkpoint.Client
	st    state
	ready bool

	// Delivered counts events delivered to consumers by this instance.
	Delivered uint64
}

// NewService builds an event-service instance. restart selects the
// recovery path: restore registrations from the checkpoint federation, then
// signal readiness to the local GSD.
func NewService(part types.PartitionID, view federation.View, ckptTimeout time.Duration, restart bool) *Service {
	return &Service{part: part, view: view.Clone(), ckptTO: ckptTimeout, restart: restart,
		st: state{NextSubID: 1}}
}

func (s *Service) ckptOwner() string { return fmt.Sprintf("es/%d", s.part) }

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcES }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) {
	s.rt = h
	// The checkpoint instance is co-located on the same node; the rest of
	// the checkpoint federation serves as failover targets for retries.
	s.ckpt = checkpoint.NewClient(h, rpc.Options{
		Budget: s.ckptTO,
		Peers:  func() []types.Addr { return s.view.PeerAddrs(s.part, types.SvcCkpt) },
	}, func() (types.Addr, bool) {
		return types.Addr{Node: h.Node(), Service: types.SvcCkpt}, true
	})
	if !s.restart {
		s.ready = true
		s.signalReady()
		return
	}
	s.tryRestore(3)
}

// tryRestore attempts a checkpoint restore with retries: during a
// migration the co-located checkpoint instance may still be paying its own
// exec latency when this instance starts.
func (s *Service) tryRestore(attempts int) {
	s.ckpt.Restore(s.ckptOwner(), func(data []byte, found bool) {
		if found {
			if st, err := decodeState(data); err == nil {
				s.st = st
			}
		} else if attempts > 1 {
			s.rt.After(200*time.Millisecond, func() { s.tryRestore(attempts - 1) })
			return
		}
		s.ready = true
		s.signalReady()
	})
}

func (s *Service) signalReady() {
	s.rt.Send(types.Addr{Node: s.rt.Node(), Service: types.SvcGSD}, types.AnyNIC,
		MsgReady, ReadyMsg{Service: types.SvcES})
}

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// Ready reports whether the instance has finished any checkpoint restore.
func (s *Service) Ready() bool { return s.ready }

// Subscriptions reports the current registration count.
func (s *Service) Subscriptions() int { return len(s.st.Subs) }

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	if s.ckpt != nil && s.ckpt.Handle(msg) {
		return
	}
	switch msg.Type {
	case MsgSubscribe:
		req, ok := msg.Payload.(SubReq)
		if !ok {
			return
		}
		sub := req.Sub
		sub.ID = s.st.NextSubID
		s.st.NextSubID++
		// A re-subscription (same consumer, same filters — e.g. a daemon
		// retrying because its ack was lost) replaces the old registration
		// instead of double-delivering every matching event.
		if old, found := s.findEquivalent(sub); found {
			s.removeSub(old)
			s.replicate(MsgUnsubRepl, UnsubReq{ID: old})
		}
		s.st.Subs = append(s.st.Subs, sub)
		s.checkpointState()
		s.replicate(MsgSubRepl, SubReq{Sub: sub})
		s.rt.Send(msg.From, types.AnyNIC, MsgSubAck, SubAck{Token: req.Token, ID: sub.ID})
	case MsgSubRepl:
		req, ok := msg.Payload.(SubReq)
		if !ok {
			return
		}
		s.installReplica(req.Sub)
	case MsgUnsubscribe:
		req, ok := msg.Payload.(UnsubReq)
		if !ok {
			return
		}
		s.removeSub(req.ID)
		s.checkpointState()
		s.replicate(MsgUnsubRepl, UnsubReq{ID: req.ID})
		s.rt.Send(msg.From, types.AnyNIC, MsgUnsubAck, UnsubAck{Token: req.Token})
	case MsgUnsubRepl:
		req, ok := msg.Payload.(UnsubReq)
		if !ok {
			return
		}
		s.removeSub(req.ID)
	case MsgSupplier:
		req, ok := msg.Payload.(SupplierReq)
		if !ok {
			return
		}
		s.st.Suppliers = append(s.st.Suppliers, req)
		s.checkpointState()
	case MsgPublish:
		req, ok := msg.Payload.(PubReq)
		if !ok {
			return
		}
		s.publish(req.Event)
	case federation.MsgView:
		if vm, ok := msg.Payload.(federation.ViewMsg); ok {
			s.view.Adopt(vm.View)
		}
	}
}

func (s *Service) installReplica(sub Subscription) {
	for _, existing := range s.st.Subs {
		if existing.ID == sub.ID && existing.Consumer == sub.Consumer {
			return
		}
	}
	s.st.Subs = append(s.st.Subs, sub)
	if sub.ID >= s.st.NextSubID {
		s.st.NextSubID = sub.ID + 1
	}
	s.checkpointState()
}

// findEquivalent locates an existing registration with the same consumer
// and identical filters.
func (s *Service) findEquivalent(sub Subscription) (uint64, bool) {
	for _, existing := range s.st.Subs {
		if existing.Consumer != sub.Consumer ||
			existing.PartitionFilter != sub.PartitionFilter ||
			existing.ServiceFilter != sub.ServiceFilter ||
			len(existing.Types) != len(sub.Types) {
			continue
		}
		same := true
		for i := range existing.Types {
			if existing.Types[i] != sub.Types[i] {
				same = false
				break
			}
		}
		if same {
			return existing.ID, true
		}
	}
	return 0, false
}

func (s *Service) removeSub(id uint64) {
	subs := s.st.Subs[:0]
	for _, sub := range s.st.Subs {
		if sub.ID != id {
			subs = append(subs, sub)
		}
	}
	s.st.Subs = subs
}

// publish stamps and delivers an event to every matching consumer,
// cluster-wide: the federation's replicated registrations let the receiving
// instance deliver directly (single access point, one hop).
func (s *Service) publish(ev types.Event) {
	s.st.NextSeq++
	ev.Seq = s.st.NextSeq
	if ev.When.IsZero() {
		ev.When = s.rt.Now()
	}
	for _, sub := range s.st.Subs {
		if !sub.Matches(ev) {
			continue
		}
		s.Delivered++
		s.rt.Send(sub.Consumer, types.AnyNIC, MsgEvent, EventMsg{SubID: sub.ID, Event: ev})
	}
}

func (s *Service) replicate(msgType string, payload any) {
	for _, peer := range s.view.PeerAddrs(s.part, types.SvcES) {
		s.rt.Send(peer, types.AnyNIC, msgType, payload)
	}
}

func (s *Service) checkpointState() {
	data, err := encodeState(s.st)
	if err != nil {
		return
	}
	s.ckpt.Save(s.ckptOwner(), data, nil)
}

func encodeState(st state) ([]byte, error) {
	data, err := codec.AppendPayload(nil, st)
	if err != nil {
		return nil, fmt.Errorf("events: encode state: %w", err)
	}
	return data, nil
}

func decodeState(data []byte) (state, error) {
	var st state
	if err := codec.DecodePayload(data, &st); err != nil {
		return state{}, fmt.Errorf("events: decode state: %w", err)
	}
	return st, nil
}

var _ simhost.Process = (*Service)(nil)
