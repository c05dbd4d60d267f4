package elastic

import "testing"

func TestReactiveUtilization(t *testing.T) {
	p := ReactiveUtilization{} // 0.75 / 0.30
	cases := []struct {
		name string
		s    Sample
		want Action
	}{
		{"no slaves", Sample{}, Hold},
		{"overloaded", Sample{AdmittedCount: 2, MeanAdmittedUtil: 0.85}, ScaleOut},
		{"at high water", Sample{AdmittedCount: 2, MeanAdmittedUtil: 0.75}, ScaleOut},
		{"comfortable", Sample{AdmittedCount: 2, MeanAdmittedUtil: 0.55}, Hold},
		{"hysteresis band", Sample{AdmittedCount: 2, MeanAdmittedUtil: 0.40}, Hold},
		{"idle", Sample{AdmittedCount: 2, MeanAdmittedUtil: 0.20}, ScaleIn},
	}
	for _, c := range cases {
		if got, _ := p.Decide(c.s); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStalenessSLO(t *testing.T) {
	p := StalenessSLO{} // target 500 ms, frac 0.2, guard 0.60
	cases := []struct {
		name string
		s    Sample
		want Action
	}{
		{"no slaves", Sample{}, Hold},
		{"violating", Sample{AdmittedCount: 1, WorstAdmittedP95Ms: 900}, ScaleOut},
		{"inside slo", Sample{AdmittedCount: 2, WorstAdmittedP95Ms: 300, MeanAdmittedUtil: 0.2}, Hold},
		{"deep headroom, low cpu", Sample{AdmittedCount: 3, WorstAdmittedP95Ms: 20, MeanAdmittedUtil: 0.3}, ScaleIn},
		{"deep headroom, cpu guard trips", Sample{AdmittedCount: 3, WorstAdmittedP95Ms: 20, MeanAdmittedUtil: 0.5}, Hold},
		{"deep headroom, last slave", Sample{AdmittedCount: 1, WorstAdmittedP95Ms: 20, MeanAdmittedUtil: 0.1}, Hold},
	}
	for _, c := range cases {
		if got, reason := p.Decide(c.s); got != c.want {
			t.Errorf("%s: got %v (%s), want %v", c.name, got, reason, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	if Hold.String() != "hold" || ScaleOut.String() != "scale-out" || ScaleIn.String() != "scale-in" {
		t.Error("Action.String mismatch")
	}
}
