// Service wraps the gossip engine in a kernel process: the GSD spawns one
// per partition server next to ES/DB/Ckpt, the round timer drives digest
// exchange, and co-located services feed it over local messages.
package gossip

import (
	"repro/internal/codec"
	"repro/internal/federation"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wirebin"
)

// Message types. gsp.digest and gsp.updates travel between partitions;
// submit and deliver are local hops between co-located services.
const (
	// MsgDigest carries a round digest (peer -> peer).
	MsgDigest = "gsp.digest"
	// MsgUpdates carries missing suffixes (peer -> peer).
	MsgUpdates = "gsp.updates"
	// MsgSubmit hands a locally authored bulletin delta to gossip
	// (bulletin primary -> local gossip).
	MsgSubmit = "gsp.submit"
	// MsgDeliver hands a learned delta to the bulletin
	// (local gossip -> bulletin).
	MsgDeliver = "gsp.deliver"
)

// DigestMsg is the round exchange opener. Reply marks a counter-digest
// sent by a peer that was behind: it may be answered with updates but
// never with another digest, so every exchange terminates.
type DigestMsg struct {
	Digest Digest
	Reply  bool
}

// UpdatesMsg pushes missing suffixes to a peer.
type UpdatesMsg struct{ Updates Updates }

// SubmitMsg is the local bulletin primary's delta hand-off; the source
// partition is implicitly the submitter's own.
type SubmitMsg struct {
	Seq  uint64
	Data []byte
}

// DeliverMsg is the local delivery of a learned delta to the bulletin.
type DeliverMsg struct {
	Src  types.PartitionID
	Seq  uint64
	Data []byte
}

func init() {
	wirebin.Intern(MsgDigest, MsgUpdates, MsgSubmit, MsgDeliver)
	codec.Register(96, DigestMsg{})
	codec.Register(97, UpdatesMsg{})
	codec.Register(98, SubmitMsg{})
	codec.Register(99, DeliverMsg{})
}

// Service is the gossip kernel process.
type Service struct {
	cfg  Config
	view federation.View
	eng  *Engine
	h    *simhost.Handle
}

// NewService builds a gossip instance for one partition server.
func NewService(part types.PartitionID, view federation.View, cfg Config) *Service {
	cfg.Part = part
	return &Service{cfg: cfg.withDefaults(), view: view.Clone()}
}

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcGossip }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) {
	s.h = h
	s.eng = NewEngine(s.cfg)
	s.eng.SetView(s.view)
	s.schedule()
}

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// schedule arms the next round at Interval plus a jittered offset drawn
// from the engine's seeded RNG, so rounds stay reproducible but nodes
// with identical intervals drift apart instead of bursting in phase.
func (s *Service) schedule() {
	d := s.cfg.Interval + s.eng.Jitter(s.cfg.Interval/8)
	s.h.After(d, func() {
		s.round()
		s.schedule()
	})
}

// round sends the digest to Fanout random peers.
func (s *Service) round() {
	dig := s.eng.Digest()
	for _, peer := range s.eng.PickPeers() {
		s.h.Send(types.Addr{Node: peer, Service: types.SvcGossip},
			types.AnyNIC, MsgDigest, DigestMsg{Digest: dig})
	}
}

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	switch msg.Type {
	case MsgDigest:
		d, ok := msg.Payload.(DigestMsg)
		if !ok {
			return
		}
		ups, has, wantReply := s.eng.HandleDigest(d.Digest, d.Reply)
		if has {
			s.h.Send(msg.From, types.AnyNIC, MsgUpdates, UpdatesMsg{Updates: ups})
		}
		if wantReply {
			s.h.Send(msg.From, types.AnyNIC, MsgDigest,
				DigestMsg{Digest: s.eng.Digest(), Reply: true})
		}
	case MsgUpdates:
		u, ok := msg.Payload.(UpdatesMsg)
		if !ok {
			return
		}
		s.deliver(s.eng.HandleUpdates(u.Updates))
	case MsgSubmit:
		m, ok := msg.Payload.(SubmitMsg)
		if !ok {
			return
		}
		s.eng.AddDelta(s.cfg.Part, m.Seq, m.Data)
	case federation.MsgView:
		vm, ok := msg.Payload.(federation.ViewMsg)
		if !ok {
			return
		}
		s.eng.SetView(vm.View)
	}
}

// deliver routes what a round learned to the co-located consumers: fresh
// deltas to the bulletin (which keeps its own per-source sequencing and
// requestSync repair), newer federation views to the services the GSD
// would have pushed to. The GSD itself is excluded — its view derives
// from meta-group membership, the authoritative path.
func (s *Service) deliver(ap Apply) {
	self := s.h.Node()
	if ap.View != nil {
		vm := federation.ViewMsg{View: *ap.View}
		for _, svc := range []string{types.SvcES, types.SvcDB, types.SvcCkpt} {
			s.h.Send(types.Addr{Node: self, Service: svc},
				types.AnyNIC, federation.MsgView, vm)
		}
	}
	for _, d := range ap.Deltas {
		s.h.Send(types.Addr{Node: self, Service: types.SvcDB},
			types.AnyNIC, MsgDeliver, DeliverMsg{Src: d.Src, Seq: d.Seq, Data: d.Data})
	}
}

// Stats snapshots the hosted engine's counters; zero before Start.
func (s *Service) Stats() Stats {
	if s.eng == nil {
		return Stats{Part: int(s.cfg.Part), Fanout: s.cfg.Fanout}
	}
	return s.eng.Stats()
}

// Engine exposes the state machine for tests and benches.
func (s *Service) Engine() *Engine { return s.eng }
