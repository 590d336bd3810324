package codec_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/rpc"
)

// unroutedAcks are the ack types that carry a token but are not resolved
// through rpc.Caller.Handle or rpc.Pending.Handle, each with the reason.
var unroutedAcks = map[string]string{
	"bulletin.QueryAck": "the bulletin client routes its shard-plane acks itself: it adopts the piggybacked map first",
	"bulletin.PutAck":   "the bulletin client turns a wrong-shard answer into rpc.Caller.Reject",
	"bulletin.GetAck":   "the bulletin client escalates a replica's miss to the primary",
	"heartbeat.IndirectProbeAck": "only positive relayed evidence may resolve a diagnosis " +
		"(heartbeat.Monitor.HandleIndirectAck)",
	"security.AuthAck":  "no product client calls the security service",
	"security.CheckAck": "no product client calls the security service",
	"pbs.SubmitAck":     "no product client submits to the PBS baseline",
}

// TestAcksImplementReply fences the one reply path: a registered payload
// named *Ack with a Token uint64 field must implement rpc.Reply, echoing
// that field, or every call answered by it would time out. Exemptions
// must still exist and still be unrouted, so the list cannot rot.
func TestAcksImplementReply(t *testing.T) {
	replyType := reflect.TypeOf((*rpc.Reply)(nil)).Elem()
	exempt := map[string]bool{}
	for _, ex := range codec.Registered() {
		typ := reflect.TypeOf(ex)
		name := fmt.Sprintf("%T", ex)
		tok, hasTok := typ.FieldByName("Token")
		if !strings.HasSuffix(typ.Name(), "Ack") || !hasTok || tok.Type.Kind() != reflect.Uint64 {
			continue
		}
		if _, ok := unroutedAcks[name]; ok {
			exempt[name] = true
			if typ.Implements(replyType) {
				t.Errorf("%s implements rpc.Reply: drop it from unroutedAcks", name)
			}
			continue
		}
		if !typ.Implements(replyType) {
			t.Errorf("%s carries a Token but does not implement rpc.Reply: no Handle can resolve it", name)
			continue
		}
		v := reflect.New(typ).Elem()
		v.FieldByIndex(tok.Index).SetUint(0x5eed)
		if got := v.Interface().(rpc.Reply).ReplyToken(); got != 0x5eed {
			t.Errorf("%s.ReplyToken() = %#x, want its Token field", name, got)
		}
	}
	for name := range unroutedAcks {
		if !exempt[name] {
			t.Errorf("unroutedAcks names %s, which is not a registered ack with a Token", name)
		}
	}
}
