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
		Outcomes:    []outcome{7: 4}, // job 8 failed
		Attempts:    map[types.JobID]int{6: 1, 7: 2},
		FailReasons: map[types.JobID]string{8: "poison"},
		Draining:    map[types.NodeID]bool{9: true},
		Retained:    map[types.NodeID]retainedLease{5: {From: "batch", By: "service", FreedAt: at}},
		Shed:        1, ShedTotal: 12,
	}
	data, err := encodeState(in, 0)
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
	data, err := encodeState(state{NextID: 2, Queues: map[string][]Job{"batch": {{ID: 1, Pool: "batch"}}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Spec{})
	if s.st, err = decodeState(data); err != nil {
		t.Fatal(err)
	}
	s.restoreMaps()
	s.st.Running[1] = &RunJob{}
	s.st.finish(1, StateCompleted)
	s.st.Attempts[1] = 1
	s.st.FailReasons[1] = ""
	s.st.Draining[3] = true
	s.st.Retained[3] = retainedLease{}
}

// TestJobStatUnknownIDs: finished jobs answer their final state from
// the dense outcome codes; an ID that is negative, zero, unfinished or
// never issued answers unknown, and none indexes past the codes.
func TestJobStatUnknownIDs(t *testing.T) {
	s := New(Spec{})
	s.st.NextID = 5
	s.st.finish(1, StateCompleted)
	s.st.finish(3, StateFailed)
	s.st.FailReasons[3] = "poison"
	s.st.finish(4, StateTimeout)
	want := map[types.JobID]JobState{
		-1 << 40: StateUnknown, -1: StateUnknown, 0: StateUnknown,
		1: StateCompleted, 2: StateUnknown, 3: StateFailed, 4: StateTimeout,
		5: StateUnknown, 1 << 40: StateUnknown,
	}
	for id, st := range want {
		if got := s.jobStat(JobStatReq{ID: id}); got.State != st {
			t.Errorf("job %d: state %q, want %q", id, got.State, st)
		}
	}
	if got := s.jobStat(JobStatReq{ID: 3}); got.Reason != "poison" {
		t.Errorf("failed job's reason %q, want poison", got.Reason)
	}
}

// TestStateBytesFlatAsJobsFinish: a finished job costs its state one
// byte, so 2,000 of them encode in a few kilobytes rather than growing
// every save by a map entry each.
func TestStateBytesFlatAsJobsFinish(t *testing.T) {
	st := New(Spec{}).st
	empty, err := encodeState(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := types.JobID(1); id <= 2000; id++ {
		st.finish(id, StateCompleted)
		st.NextID, st.Completed = id+1, int(id)
	}
	data, err := encodeState(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 4096 {
		t.Fatalf("2,000 finished jobs encode to %d bytes (%d with none), want at most 4 kB", len(data), len(empty))
	}
	t.Logf("state with 2,000 finished jobs: %d bytes (%d with none)", len(data), len(empty))
}

// benchState builds a scheduler state with queued, running and finished
// jobs, numbered in that order.
func benchState(queued, running, done int) state {
	st := New(Spec{}).st
	at := time.Unix(1125532800, 7)
	id := types.JobID(1)
	next := func() Job {
		job := Job{ID: id, Pool: "batch", Name: "linpack", Duration: time.Minute, Width: 1,
			Walltime: time.Hour, Seq: uint64(id)}
		id++
		return job
	}
	for i := 0; i < done; i++ {
		st.finish(next().ID, StateCompleted)
		st.Completed++
	}
	for i := 0; i < running; i++ {
		job := next()
		st.Running[job.ID] = &RunJob{Job: job, Nodes: []types.NodeID{types.NodeID(i)}, Remaining: 1, StartedAt: at, Gen: uint64(i)}
	}
	for i := 0; i < queued; i++ {
		st.Queues["batch"] = append(st.Queues["batch"], next())
	}
	st.NextID, st.NextSeq, st.NextGen = id, uint64(id), uint64(running)
	return st
}

// BenchmarkEncodeState encodes a 2,000-job state the way successive saves
// do, each into a fresh buffer sized from the previous save: B/op should
// stay within 1.5x of blob_B.
func BenchmarkEncodeState(b *testing.B) {
	st := benchState(1000, 480, 520)
	data, err := encodeState(st, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, err = encodeState(st, len(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "blob_B")
}

func BenchmarkDecodeState(b *testing.B) {
	data, err := encodeState(benchState(1000, 480, 520), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeState(data); err != nil {
			b.Fatal(err)
		}
	}
}
