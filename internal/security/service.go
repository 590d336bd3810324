package security

import (
	"time"

	"repro/internal/codec"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Message types of the security service.
const (
	MsgAuth     = "sec.auth"
	MsgAuthAck  = "sec.auth.ack"
	MsgCheck    = "sec.check"
	MsgCheckAck = "sec.check.ack"
)

// AuthReq authenticates a principal.
type AuthReq struct {
	Token     uint64
	Principal string
	Secret    string
	TTL       time.Duration
}

// AuthAck returns a signed token or an error.
type AuthAck struct {
	Token  uint64
	OK     bool
	Signed string
	Err    string
}

// CheckReq asks whether a signed token may perform an operation.
type CheckReq struct {
	Token  uint64
	Signed string
	Op     Operation
}

// CheckAck answers an authorization check.
type CheckAck struct {
	Token     uint64
	OK        bool
	Principal string
	Role      Role
	Err       string
}

func init() {
	codec.Register(256, AuthReq{})
	codec.Register(257, AuthAck{})
	codec.Register(258, CheckReq{})
	codec.Register(259, CheckAck{})
}

// Service is the security service daemon; a single instance runs on the
// cluster master node.
type Service struct {
	auth *Authority
	rt   rt.Runtime
}

// NewService wraps an Authority as a daemon.
func NewService(auth *Authority) *Service { return &Service{auth: auth} }

// Authority exposes the wrapped authority for co-located wiring.
func (s *Service) Authority() *Authority { return s.auth }

// Service implements simhost.Process.
func (s *Service) Service() string { return types.SvcSecurity }

// Start implements simhost.Process.
func (s *Service) Start(h *simhost.Handle) { s.rt = h }

// OnStop implements simhost.Process.
func (s *Service) OnStop() {}

// Receive implements simhost.Process.
func (s *Service) Receive(msg types.Message) {
	switch msg.Type {
	case MsgAuth:
		req, ok := msg.Payload.(AuthReq)
		if !ok {
			return
		}
		signed, err := s.auth.Authenticate(req.Principal, req.Secret, req.TTL, s.rt.Now())
		ack := AuthAck{Token: req.Token, OK: err == nil, Signed: signed}
		if err != nil {
			ack.Err = err.Error()
		}
		s.rt.Send(msg.From, types.AnyNIC, MsgAuthAck, ack)
	case MsgCheck:
		req, ok := msg.Payload.(CheckReq)
		if !ok {
			return
		}
		tok, err := s.auth.Authorize(req.Signed, req.Op, s.rt.Now())
		ack := CheckAck{Token: req.Token, OK: err == nil, Principal: tok.Principal, Role: tok.Role}
		if err != nil {
			ack.Err = err.Error()
		}
		s.rt.Send(msg.From, types.AnyNIC, MsgCheckAck, ack)
	}
}

var _ simhost.Process = (*Service)(nil)
