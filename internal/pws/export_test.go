package pws

import "repro/internal/types"

// SavedJobs lists the queued and running jobs a checkpointed scheduler
// state holds.
func SavedJobs(data []byte) (map[types.JobID]bool, error) {
	st, err := decodeState(data)
	if err != nil {
		return nil, err
	}
	jobs := make(map[types.JobID]bool)
	for _, queue := range st.Queues {
		for _, job := range queue {
			jobs[job.ID] = true
		}
	}
	for id := range st.Running {
		jobs[id] = true
	}
	return jobs, nil
}
