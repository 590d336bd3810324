// Package checkpoint implements the Phoenix checkpoint service (paper
// §4.2): upper-layer services save their own state by calling the
// checkpoint interface, and a recovered or migrated daemon retrieves that
// state to resume where its predecessor stopped. One instance runs per
// partition; instances replicate every save to their federation peers, so
// a partition-server failure loses nothing.
package checkpoint

import (
	"log"
	"time"

	"repro/internal/codec"
	"repro/internal/federation"
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Message types of the checkpoint service.
const (
	MsgSave       = "ckpt.save"
	MsgSaveAck    = "ckpt.save.ack"
	MsgRestore    = "ckpt.restore"
	MsgRestoreAck = "ckpt.restore.ack"
	MsgDelete     = "ckpt.delete"
	MsgDeleteAck  = "ckpt.delete.ack"
	MsgRepl       = "ckpt.repl"
	MsgFetch      = "ckpt.fetch"
	MsgFetchAck   = "ckpt.fetch.ack"
)

// SaveReq stores a state snapshot under an owner key (e.g. "es/part3").
// Version is the client's monotonic counter for the owner; the store keeps
// the highest version, so saves that reorder in flight cannot roll state
// back.
type SaveReq struct {
	Token   uint64
	Owner   string
	Version uint64
	Data    []byte
}

// SaveAck confirms a save.
type SaveAck struct {
	Token uint64
	Seq   uint64
}

// RestoreReq retrieves the latest snapshot for an owner.
type RestoreReq struct {
	Token uint64
	Owner string
}

// RestoreAck returns the snapshot, if any instance of the federation holds
// one.
type RestoreAck struct {
	Token uint64
	Found bool
	Seq   uint64
	Data  []byte
}

// DeleteReq removes an owner's snapshots federation-wide. Version follows
// the same monotonic rule as SaveReq.
type DeleteReq struct {
	Token   uint64
	Owner   string
	Version uint64
}

// DeleteAck confirms a delete.
type DeleteAck struct{ Token uint64 }

// Repl replicates a record (or tombstone) to peers.
type Repl struct {
	Owner   string
	Seq     uint64
	Data    []byte
	Deleted bool
}

// FetchReq asks a peer for its newest record of an owner.
type FetchReq struct {
	Token uint64
	Owner string
}

// FetchAck answers a fetch.
type FetchAck struct {
	Token uint64
	Found bool
	Seq   uint64
	Data  []byte
}

// Reply tokens (rpc.Reply): the checkpoint client resolves the first
// three, a peer instance's fetch table the last.
func (a SaveAck) ReplyToken() uint64    { return a.Token }
func (a RestoreAck) ReplyToken() uint64 { return a.Token }
func (a DeleteAck) ReplyToken() uint64  { return a.Token }
func (a FetchAck) ReplyToken() uint64   { return a.Token }

func init() {
	codec.Register(128, SaveReq{})
	codec.Register(129, SaveAck{})
	codec.Register(130, RestoreReq{})
	codec.Register(131, RestoreAck{})
	codec.Register(132, DeleteReq{})
	codec.Register(133, DeleteAck{})
	codec.Register(134, Repl{})
	codec.Register(135, FetchReq{})
	codec.Register(136, FetchAck{})
	codec.Register(137, diskRecord{})
}

type record struct {
	seq     uint64
	data    []byte
	deleted bool
}

// Service is one checkpoint instance.
type Service struct {
	part    types.PartitionID
	view    federation.View
	fetchTO time.Duration
	dir     string

	rt      rt.Runtime
	pending *rpc.Pending
	store   map[string]record
	disk    *DiskStore
}

// NewService builds a checkpoint instance for a partition with an initial
// federation view. State lives in memory only.
func NewService(part types.PartitionID, view federation.View, fetchTimeout time.Duration) *Service {
	return &Service{part: part, view: view.Clone(), fetchTO: fetchTimeout,
		store: make(map[string]record)}
}

// NewPersistentService builds a checkpoint instance that additionally
// mirrors every accepted record (saves, deletes, replications, fetched
// adoptions) to dir with atomic, fsynced writes, and reloads the mirror on
// start — the crash-restart durability layer under -state-dir.
func NewPersistentService(part types.PartitionID, view federation.View, fetchTimeout time.Duration, dir string) *Service {
	s := NewService(part, view, fetchTimeout)
	s.dir = dir
	return s
}

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcCkpt }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) {
	s.rt = h
	s.pending = rpc.NewPending(h)
	s.initDisk()
}

// initDisk opens the persistent store (when configured) and folds its
// records into memory. A store that cannot be opened degrades the instance
// to memory-only with a logged warning rather than failing the boot.
func (s *Service) initDisk() {
	if s.dir == "" || s.disk != nil {
		return
	}
	disk, err := NewDiskStore(s.dir)
	if err != nil {
		log.Printf("checkpoint: partition %v: running memory-only: %v", s.part, err)
		return
	}
	s.disk = disk
	for owner, rec := range disk.Load() {
		if cur, ok := s.store[owner]; !ok || rec.seq > cur.seq {
			s.store[owner] = rec
		}
	}
}

// persist mirrors one accepted record to disk, when persistence is on.
func (s *Service) persist(owner string, rec record) {
	if s.disk == nil {
		return
	}
	if err := s.disk.Put(owner, rec.seq, rec.data, rec.deleted); err != nil {
		log.Printf("checkpoint: partition %v: persist %q: %v", s.part, owner, err)
	}
}

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// Len reports the number of live (non-tombstone) records held locally.
func (s *Service) Len() int {
	n := 0
	for _, r := range s.store {
		if !r.deleted {
			n++
		}
	}
	return n
}

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	if s.pending.Handle(msg) {
		return
	}
	switch msg.Type {
	case MsgSave:
		req, ok := msg.Payload.(SaveReq)
		if !ok {
			return
		}
		seq := s.apply(req.Owner, req.Version, record{data: req.Data})
		s.rt.Send(msg.From, types.AnyNIC, MsgSaveAck, SaveAck{Token: req.Token, Seq: seq})
	case MsgDelete:
		req, ok := msg.Payload.(DeleteReq)
		if !ok {
			return
		}
		s.apply(req.Owner, req.Version, record{deleted: true})
		s.rt.Send(msg.From, types.AnyNIC, MsgDeleteAck, DeleteAck{Token: req.Token})
	case MsgRepl:
		rep, ok := msg.Payload.(Repl)
		if !ok {
			return
		}
		if cur := s.store[rep.Owner]; rep.Seq > cur.seq {
			rec := record{seq: rep.Seq, data: rep.Data, deleted: rep.Deleted}
			s.store[rep.Owner] = rec
			s.persist(rep.Owner, rec)
		}
	case MsgRestore:
		req, ok := msg.Payload.(RestoreReq)
		if !ok {
			return
		}
		s.restore(msg.From, req)
	case MsgFetch:
		req, ok := msg.Payload.(FetchReq)
		if !ok {
			return
		}
		rec, found := s.store[req.Owner]
		s.rt.Send(msg.From, types.AnyNIC, MsgFetchAck, FetchAck{
			Token: req.Token, Found: found && !rec.deleted, Seq: rec.seq, Data: rec.data,
		})
	case federation.MsgView:
		if vm, ok := msg.Payload.(federation.ViewMsg); ok {
			s.view.Adopt(vm.View)
		}
	}
}

// apply stores a record under the owner at the given version (0 means
// "next"), ignoring versions at or below the current one, and replicates
// accepted records. It returns the owner's current sequence.
func (s *Service) apply(owner string, version uint64, rec record) uint64 {
	cur := s.store[owner]
	if version == 0 {
		version = cur.seq + 1
	}
	if version <= cur.seq {
		return cur.seq // stale or duplicate
	}
	rec.seq = version
	s.store[owner] = rec
	s.persist(owner, rec)
	s.replicate(owner, rec)
	return version
}

func (s *Service) replicate(owner string, rec record) {
	rep := Repl{Owner: owner, Seq: rec.seq, Data: rec.data, Deleted: rec.deleted}
	for _, peer := range s.view.PeerAddrs(s.part, types.SvcCkpt) {
		s.rt.Send(peer, types.AnyNIC, MsgRepl, rep)
	}
}

// restore serves a restore request: the local record if present, otherwise
// the newest record any federation peer holds (the migration path — a
// freshly spawned instance on a backup node starts empty).
func (s *Service) restore(replyTo types.Addr, req RestoreReq) {
	if rec, ok := s.store[req.Owner]; ok {
		s.rt.Send(replyTo, types.AnyNIC, MsgRestoreAck, RestoreAck{
			Token: req.Token, Found: !rec.deleted, Seq: rec.seq, Data: rec.data,
		})
		return
	}
	peers := s.view.PeerAddrs(s.part, types.SvcCkpt)
	if len(peers) == 0 {
		s.rt.Send(replyTo, types.AnyNIC, MsgRestoreAck, RestoreAck{Token: req.Token})
		return
	}
	best := record{}
	found := false
	remaining := len(peers)
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		if found && !best.deleted {
			// Adopt the fetched record locally so subsequent restores
			// are served without refetching.
			s.store[req.Owner] = best
			s.persist(req.Owner, best)
			s.rt.Send(replyTo, types.AnyNIC, MsgRestoreAck, RestoreAck{
				Token: req.Token, Found: true, Seq: best.seq, Data: best.data,
			})
			return
		}
		s.rt.Send(replyTo, types.AnyNIC, MsgRestoreAck, RestoreAck{Token: req.Token})
	}
	for _, peer := range peers {
		tok := s.pending.New(s.fetchTO,
			func(payload any) {
				ack, _ := payload.(FetchAck)
				if ack.Found && ack.Seq > best.seq {
					best = record{seq: ack.Seq, data: ack.Data}
					found = true
				}
				finish()
			},
			finish)
		s.rt.Send(peer, types.AnyNIC, MsgFetch, FetchReq{Token: tok, Owner: req.Owner})
	}
}

var _ simhost.Process = (*Service)(nil)
