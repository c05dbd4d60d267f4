package sqlengine_test

import (
	"testing"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestAnalyzeEquivalenceOnCloudstone compares ANALYZE with its oracle on the
// data every benchmark cell and EXPLAIN golden plans against: the Cloudstone
// preload at the three scales the cells use, plus the heartbeat table.
func TestAnalyzeEquivalenceOnCloudstone(t *testing.T) {
	for _, scale := range []int{50, 300, 600} {
		env := sim.NewEnv(1)
		c := cloud.New(env, cloud.Config{})
		at := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
		srv := server.New(env, "m", c.Launch("m", cloud.Small, at), server.DefaultCostModel())
		if err := cloudstone.Preload(scale)(srv); err != nil {
			t.Fatal(err)
		}
		if err := heartbeat.Preload(srv); err != nil {
			t.Fatal(err)
		}
		tables, diffs := sqlengine.AnalyzeDiffs(srv.Eng)
		if tables < 8 {
			t.Errorf("scale %d: only %d tables compared", scale, tables)
		}
		for _, d := range diffs {
			t.Errorf("scale %d: %s", scale, d)
		}
		env.Shutdown()
	}
}
