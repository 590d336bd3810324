// Adaptive accrual suspicion (phi-accrual style, Hayashibara et al.) and
// flap-score dampening for the partition monitor. The fixed
// Interval+Grace deadline of the paper's §4.3 detection stays the floor:
// the accrual window can only stretch the deadline when the observed
// inter-arrival distribution is noisier than the configured period, never
// shrink it below the paper's bound.
package heartbeat

import (
	"math"
	"time"
)

// arrivalWindow is a fixed-capacity ring of heartbeat inter-arrival
// samples for one node. Samples are recorded once per heartbeat sequence
// number (sibling copies of the same beat on other NICs do not count) so
// the window estimates the beat period, not the NIC fan-out.
type arrivalWindow struct {
	samples []time.Duration
	idx     int
	n       int
}

// minAccrualSamples is how many inter-arrivals must be observed before
// the adaptive estimate replaces the fixed deadline.
const minAccrualSamples = 8

// suspicionWindow is the per-node inter-arrival sample window.
const suspicionWindow = 64

func newArrivalWindow() *arrivalWindow {
	return &arrivalWindow{samples: make([]time.Duration, suspicionWindow)}
}

func (w *arrivalWindow) add(d time.Duration) {
	w.samples[w.idx] = d
	w.idx = (w.idx + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
}

// stats returns the window's mean and standard deviation. ok is false
// until minAccrualSamples have been recorded.
func (w *arrivalWindow) stats() (mean, std time.Duration, ok bool) {
	if w.n < minAccrualSamples {
		return 0, 0, false
	}
	var sum float64
	for i := 0; i < w.n; i++ {
		sum += float64(w.samples[i])
	}
	mu := sum / float64(w.n)
	var sq float64
	for i := 0; i < w.n; i++ {
		d := float64(w.samples[i]) - mu
		sq += d * d
	}
	return time.Duration(mu), time.Duration(math.Sqrt(sq / float64(w.n))), true
}

// phi is the suspicion level after elapsed silence: the negative log10 of
// the probability that a beat is still merely late under a normal model
// of the observed inter-arrivals. 0 while within the mean; grows
// quadratically past it.
func (w *arrivalWindow) phi(elapsed time.Duration, minStd time.Duration) float64 {
	mean, std, ok := w.stats()
	if !ok {
		return 0
	}
	if std < minStd {
		std = minStd
	}
	if elapsed <= mean {
		return 0
	}
	z := float64(elapsed-mean) / float64(std)
	return z * z / (2 * math.Ln10)
}

// deadlineFor inverts phi: the silence duration at which the suspicion
// level reaches threshold. ok is false until the window is primed.
func (w *arrivalWindow) deadlineFor(threshold float64, minStd time.Duration) (time.Duration, bool) {
	mean, std, ok := w.stats()
	if !ok {
		return 0, false
	}
	if std < minStd {
		std = minStd
	}
	z := math.Sqrt(2 * threshold * math.Ln10)
	return mean + time.Duration(z*float64(std)), true
}

// flapScore is an exponentially decaying count of suspicion episodes.
// Each suspect transition adds one; the score halves every half-life.
// Crossing the threshold quarantines the node until the score decays to
// half the threshold.
type flapScore struct {
	score float64
	at    time.Time
}

func (f *flapScore) decayed(now time.Time, halfLife time.Duration) float64 {
	if f.score == 0 || halfLife <= 0 {
		return f.score
	}
	dt := now.Sub(f.at)
	if dt <= 0 {
		return f.score
	}
	return f.score * math.Exp2(-float64(dt)/float64(halfLife))
}

func (f *flapScore) bump(now time.Time, halfLife time.Duration) {
	f.score = f.decayed(now, halfLife) + 1
	f.at = now
}
