package sqlengine_test

import (
	"testing"
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/sqlengine"
)

// TestKeptPlansAreTheRebuildsPlans runs the plan-reuse oracle over whole
// Cloudstone runs — the 50-user, two-slave cell and A-PLAN on its short
// protocol, both planners — where every engine re-ANALYZEs tables under the
// cached plans of others and of their own: every plan taken from the cache,
// there and then, has the shape a rebuild would have given it, and every plan
// re-costed in place prints what the rebuild prints.
func TestKeptPlansAreTheRebuildsPlans(t *testing.T) {
	// recosts is how many re-costs a run must show: A-PLAN's short protocol
	// drifts no table past the re-ANALYZE threshold under a cached plan.
	runs := []struct {
		name    string
		recosts int
		run     func() error
	}{
		{"50 users, 2 slaves", 10, func() error {
			_, err := experiment.Run(experiment.RunSpec{
				Seed: 50021, Users: 50, Slaves: 2, Scale: 300, ReadRatio: 0.5, Mode: repl.Async,
				RampUp: 90 * time.Second, Steady: 4 * time.Minute, RampDown: 30 * time.Second,
			})
			return err
		}},
		{"A-PLAN", 0, func() error {
			_, err := experiment.AblationPlan(experiment.SweepOpts{Short: true, Seed: 1, Parallelism: 1})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			stop := sqlengine.WatchPlanReuse()
			err := r.run()
			seen := stop()
			if err != nil {
				t.Fatal(err)
			}
			if seen.Mismatch != "" {
				t.Fatalf("after %d plan-cache hits, a kept plan is not the plan a rebuild gives:\n%s", seen.Hits, seen.Mismatch)
			}
			if seen.Hits < 1000 || seen.Recosts < r.recosts {
				t.Fatalf("only %d plan-cache hits and %d re-costs checked: the run did not exercise the cache", seen.Hits, seen.Recosts)
			}
			t.Logf("%d plan-cache hits, each the shape of a rebuild; %d of them re-costed, each a rebuild's EXPLAIN", seen.Hits, seen.Recosts)
		})
	}
}
