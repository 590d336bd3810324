package codec_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/types"
)

// hotPayloads are the payloads the data plane sends most, each shaped
// like its traffic: a bulletin read reply, a two-partition query reply,
// a heartbeat, a resource write and a gossiped delta batch of eight rows.
// The scheduler's checkpointed state has its own pair in internal/pws.
func hotPayloads() []struct {
	name string
	v    any
} {
	at := time.Unix(1125532800, 5)
	res := types.ResourceStats{Node: 3, CPUPct: 41.5, MemPct: 12, Collected: at, RunQ: 2}
	rows := make([]types.ResourceStats, 8)
	for i := range rows {
		rows[i] = res
		rows[i].Node = types.NodeID(16 + i)
	}
	nested := nestedExemplars()
	return []struct {
		name string
		v    any
	}{
		{"GetAck", bulletin.GetAck{Token: 12, Res: res, Found: true, Primary: true, MapVersion: 4}},
		{"QueryAck", nested[0]},
		{"Heartbeat", heartbeat.Heartbeat{Node: 3, Seq: 99, Interval: 250 * time.Millisecond, Boot: at, Inc: 2}},
		{"PutReq", bulletin.PutReq{Kind: "res", Res: res, Token: 7, MapVersion: 4}},
		{"DeltaBatch", bulletin.DeltaBatch{Part: 1, MapVersion: 4, Seq: 812, Res: rows}},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, p := range hotPayloads() {
		b.Run(p.name, func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = codec.AppendPayload(buf[:0], p.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, p := range hotPayloads() {
		b.Run(p.name, func(b *testing.B) {
			data, err := codec.AppendPayload(nil, p.v)
			if err != nil {
				b.Fatal(err)
			}
			into := reflect.New(reflect.TypeOf(p.v)).Interface()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.DecodePayload(data, into); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSize(b *testing.B) {
	for _, p := range hotPayloads() {
		b.Run(p.name, func(b *testing.B) {
			msg := types.Message{Type: p.name, Payload: p.v}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeSink = codec.Size(msg)
			}
		})
	}
}

var sizeSink int
