package pws

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/types"
)

// TestStateRoundTrip checkpoints a scheduler state with every container
// shape it holds — several queues of several jobs, running jobs behind
// pointers with their own lease maps, and the per-job maps — and
// restores an identical state: no map value may share another's slice.
func TestStateRoundTrip(t *testing.T) {
	at := time.Unix(1125532800, 7)
	job := func(id types.JobID, pool string) Job {
		return Job{ID: id, Pool: pool, Name: "linpack", Duration: time.Second, Width: 2, Seq: uint64(id)}
	}
	in := state{
		NextID: 9, NextSeq: 10, NextGen: 3,
		Queues: map[string][]Job{
			"batch":   {job(1, "batch"), job(2, "batch"), job(3, "batch")},
			"service": {job(4, "service"), job(5, "service")},
		},
		Running: map[types.JobID]*RunJob{
			6: {Job: job(6, "batch"), Nodes: []types.NodeID{3, 4}, Remaining: 2, StartedAt: at, Gen: 1},
			7: {Job: job(7, "service"), Nodes: []types.NodeID{5}, Remaining: 1,
				LeasedFrom: map[types.NodeID]string{5: "batch"}, StartedAt: at, Gen: 2},
		},
		Completed:   4,
		Outcomes:    map[types.JobID]JobState{8: StateFailed},
		Attempts:    map[types.JobID]int{6: 1, 7: 2},
		FailReasons: map[types.JobID]string{8: "poison"},
		Draining:    map[types.NodeID]bool{9: true},
		Retained:    map[types.NodeID]retainedLease{5: {From: "batch", By: "service", FreedAt: at}},
		Shed:        1, ShedTotal: 12,
	}
	data, err := encodeState(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("state changed across a checkpoint:\nsaved    %+v\nrestored %+v", in, out)
	}
}

// TestRestoredEmptyMapsAreWritable: a state saved before its first
// dispatch holds no running job, and its empty maps decode as nil. The
// scheduler restored from it must still be able to dispatch and record.
func TestRestoredEmptyMapsAreWritable(t *testing.T) {
	data, err := encodeState(state{NextID: 2, Queues: map[string][]Job{"batch": {{ID: 1, Pool: "batch"}}}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Spec{})
	if s.st, err = decodeState(data); err != nil {
		t.Fatal(err)
	}
	s.restoreMaps()
	s.st.Running[1] = &RunJob{}
	s.st.Outcomes[1] = StateCompleted
	s.st.Attempts[1] = 1
	s.st.FailReasons[1] = ""
	s.st.Draining[3] = true
	s.st.Retained[3] = retainedLease{}
}
