package elastic

import "fmt"

// Action is a policy's verdict for one tick.
type Action int

const (
	// Hold keeps the fleet as it is.
	Hold Action = iota
	// ScaleOut asks for one more replica.
	ScaleOut
	// ScaleIn asks for one fewer replica.
	ScaleIn
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	default:
		return "hold"
	}
}

// Policy maps one monitor sample to a desired fleet change. Policies are
// pure decision logic: hysteresis lives in their thresholds, while cooldown,
// warm-up, fleet bounds and master-bound suppression are enforced by the
// controller, identically for every policy.
type Policy interface {
	Name() string
	// Decide returns the desired action and a human-readable reason.
	Decide(s Sample) (Action, string)
}

// ReactiveUtilization scales on slave CPU pressure: out when the admitted
// fleet's mean utilization crosses reactiveHighWater, in when it falls below
// reactiveLowWater. The gap between the watermarks is the hysteresis band
// that keeps the fleet from oscillating around a single threshold.
type ReactiveUtilization struct{}

const (
	reactiveHighWater = 0.75
	reactiveLowWater  = 0.30
)

// Name implements Policy.
func (ReactiveUtilization) Name() string { return "reactive-util" }

// Decide implements Policy.
func (ReactiveUtilization) Decide(s Sample) (Action, string) {
	if s.AdmittedCount == 0 {
		return Hold, "no admitted slaves"
	}
	if u := s.MeanAdmittedUtil; u >= reactiveHighWater {
		return ScaleOut, fmt.Sprintf("mean slave CPU %.0f%% ≥ %.0f%% high water (pool waits %.1f/s)",
			u*100, reactiveHighWater*100, s.PoolWaitRate)
	}
	if u := s.MeanAdmittedUtil; u <= reactiveLowWater {
		return ScaleIn, fmt.Sprintf("mean slave CPU %.0f%% ≤ %.0f%% low water", u*100, reactiveLowWater*100)
	}
	return Hold, ""
}

// StalenessSLO scales on the service-level objective the application
// actually cares about: the p95 age of the data its reads can observe must
// stay below SLOTargetMs. A saturated replica's applier starves behind client
// reads and its staleness grows without bound, so this policy reacts to
// overload through the same signal that defines the violation — no CPU
// threshold to mistune. Scale-in is double-guarded (deep SLO headroom and
// projected post-removal CPU) so shedding a replica cannot immediately
// re-violate the objective.
type StalenessSLO struct{}

const (
	// scaleInFraction: scale in only when p95 staleness is below this
	// fraction of the target.
	scaleInFraction = 0.2
	// utilGuard: scale in only if the remaining replicas' projected mean CPU
	// stays below this.
	utilGuard = 0.60
)

// Name implements Policy.
func (StalenessSLO) Name() string { return "staleness-slo" }

// Decide implements Policy.
func (StalenessSLO) Decide(s Sample) (Action, string) {
	if s.AdmittedCount == 0 {
		return Hold, "no admitted slaves"
	}
	if s.WorstAdmittedP95Ms > SLOTargetMs {
		return ScaleOut, fmt.Sprintf("p95 staleness %.0f ms > %.0f ms SLO", s.WorstAdmittedP95Ms, SLOTargetMs)
	}
	if s.AdmittedCount > 1 && s.WorstAdmittedP95Ms < scaleInFraction*SLOTargetMs {
		projected := s.MeanAdmittedUtil * float64(s.AdmittedCount) / float64(s.AdmittedCount-1)
		if projected <= utilGuard {
			return ScaleIn, fmt.Sprintf("p95 staleness %.0f ms ≪ SLO and projected CPU %.0f%% ≤ %.0f%% guard",
				s.WorstAdmittedP95Ms, projected*100, utilGuard*100)
		}
	}
	return Hold, ""
}
