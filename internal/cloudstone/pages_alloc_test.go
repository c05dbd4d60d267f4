package cloudstone

import (
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// TestReadPageAllocCeilings holds every read page to an allocation ceiling at
// the read-heavy cell's data size, through Prepare + Run on one engine — the
// path DBServer.Exec takes. A point read that returns one row needs a Result,
// a ResultSet, the row slice and its values; everything the executor
// allocates beyond what it returns is host cost the simulator pays per page
// and the GC pays again. -v logs the measured allocations and time per page.
func TestReadPageAllocCeilings(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	inst := c.Launch("m", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	srv := server.New(env, "m", inst, server.DefaultCostModel())
	if err := Preload(600)(srv); err != nil {
		t.Fatal(err)
	}
	sess := srv.Eng.NewSession(DatabaseName)
	ceiling := map[string]float64{
		"home": 10, "event-feed": 14, "event-detail": 6, "attendees": 6, "search-tag": 12,
		"profile": 6, "user-events": 6, "friend-list": 6, "search-text": 8, "friend-feed": 10,
		"tag-cloud": 2*NumTags + 12,
	}
	seen := map[string]bool{}
	for _, pq := range pageQueries() {
		if seen[pq.name] {
			continue
		}
		seen[pq.name] = true
		run := func() {
			st, err := srv.Eng.Prepare(pq.sql)
			if err == nil {
				_, err = st.Run(sess, pq.args...)
			}
			if err != nil {
				t.Fatalf("%s: %v", pq.name, err)
			}
		}
		allocs := testing.AllocsPerRun(200, run)
		start := time.Now()
		const timed = 200
		for i := 0; i < timed; i++ {
			run()
		}
		t.Logf("%-12s %6.1f allocs %8.1f us", pq.name, allocs, float64(time.Since(start).Microseconds())/timed)
		if max, ok := ceiling[pq.name]; !ok {
			t.Errorf("%s: no ceiling declared", pq.name)
		} else if allocs > max {
			t.Errorf("%s: %.1f allocs per page, ceiling %.0f", pq.name, allocs, max)
		}
	}
}
