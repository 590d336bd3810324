package metrics

import "time"

// Incident is one fault-tolerance episode split into the three phases the
// paper's Tables 1-3 report: detecting time (fault injection until a missed
// heartbeat is noticed), fault diagnosing time (until the failure is
// classified as process / node / network), and recovery time (until the
// failed component is back in service, or zero when no recovery action is
// needed).
type Incident struct {
	InjectedAt  time.Time
	DetectedAt  time.Time
	DiagnosedAt time.Time
	RecoveredAt time.Time
	// NoRecovery marks incidents for which recovery is a no-op by design:
	// one failed NIC of three is not fatal, and a dead node's WD is not
	// migrated because a WD only represents its own node.
	NoRecovery bool
}

// Detect reports the detecting time.
func (in *Incident) Detect() time.Duration {
	if in.DetectedAt.IsZero() {
		return -1
	}
	return in.DetectedAt.Sub(in.InjectedAt)
}

// Diagnose reports the fault-diagnosing time.
func (in *Incident) Diagnose() time.Duration {
	if in.DiagnosedAt.IsZero() || in.DetectedAt.IsZero() {
		return -1
	}
	return in.DiagnosedAt.Sub(in.DetectedAt)
}

// Recover reports the recovery time. Incidents marked NoRecovery report 0.
func (in *Incident) Recover() time.Duration {
	if in.NoRecovery {
		return 0
	}
	if in.RecoveredAt.IsZero() || in.DiagnosedAt.IsZero() {
		return -1
	}
	return in.RecoveredAt.Sub(in.DiagnosedAt)
}

// Sum reports the total detect+diagnose+recover time, mirroring the "sum of
// time" column in the paper's tables.
func (in *Incident) Sum() time.Duration {
	d, g, r := in.Detect(), in.Diagnose(), in.Recover()
	if d < 0 || g < 0 || r < 0 {
		return -1
	}
	return d + g + r
}

// Complete reports whether every phase has been stamped.
func (in *Incident) Complete() bool { return in.Sum() >= 0 }
