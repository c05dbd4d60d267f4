package cloudstone

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cloudrepl/internal/core"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// thinkTime is the mean of the exponential pause between a user's
// operations, calibrated so that ≈100 users saturate one small slave at 50/50
// as in the paper's Fig. 2.
const thinkTime = 7 * time.Second

// Config parameterizes a load run.
type Config struct {
	// Scale is the initial data size the database was preloaded with.
	Scale int
	// ReadRatio is the fraction of operations that are reads (0.5 or 0.8
	// in the paper).
	ReadRatio float64
	// Users is the number of concurrent emulated users ("workload").
	Users int
	// RampUp, Steady, RampDown are the run phases. The paper uses
	// 10/20/5 minutes.
	RampUp   time.Duration
	Steady   time.Duration
	RampDown time.Duration
	// Stages, when non-empty, replaces the three-phase structure with a
	// stepped load ramp: stage s runs Stage.Users concurrent users for
	// Stage.Dur, then the next stage begins. Users is ignored (the maximum
	// stage population is used) and the measurement window spans the whole
	// ramp — the shape elasticity experiments need, where the interesting
	// behaviour is the response to load change, not one steady plateau.
	Stages []Stage
	// CrossShard adds a friend-feed page to the read mix (25% of reads):
	// look up the user's friend list, then fetch those friends' newest
	// events in one IN-list query. Under sharding the second statement
	// scatter-gathers across cells, because the preloaded friend graph
	// deliberately spans the user id space. Off by default so unsharded
	// runs keep their published figures.
	CrossShard bool
}

// Stage is one step of a load ramp.
type Stage struct {
	Users int
	Dur   time.Duration
}

// stageTotal is the summed duration of all stages.
func (c *Config) stageTotal() time.Duration {
	var t time.Duration
	for _, s := range c.Stages {
		t += s.Dur
	}
	return t
}

// maxStageUsers is the largest stage population.
func (c *Config) maxStageUsers() int {
	n := 0
	for _, s := range c.Stages {
		if s.Users > n {
			n = s.Users
		}
	}
	return n
}

// stageActive reports whether user i is active at offset t into the ramp;
// when inactive it also returns the offset at which i next becomes active
// (-1 = never again).
func (c *Config) stageActive(i int, t time.Duration) (bool, time.Duration) {
	var off time.Duration
	for j, s := range c.Stages {
		end := off + s.Dur
		if t < end {
			if i < s.Users {
				return true, 0
			}
			next := end
			for _, s2 := range c.Stages[j+1:] {
				if i < s2.Users {
					return false, next
				}
				next += s2.Dur
			}
			return false, -1
		}
		off = end
	}
	return false, -1
}

// applyDefaults fills what the caller left zero: the paper's 35-minute run
// structure, its 50/50 mix and its 300-row data set.
func (c *Config) applyDefaults() {
	if c.ReadRatio == 0 {
		c.ReadRatio = 0.5
	}
	if c.Scale == 0 {
		c.Scale = 300
	}
	if len(c.Stages) > 0 {
		// A staged ramp measures the whole run: the population ceiling is
		// the largest stage, the window opens with the first stage and closes
		// with the last, and no phase default applies.
		c.Users = c.maxStageUsers()
		c.RampUp, c.Steady, c.RampDown = 0, c.stageTotal(), 0
		return
	}
	if c.RampUp == 0 {
		c.RampUp = 10 * time.Minute
	}
	if c.Steady == 0 {
		c.Steady = 20 * time.Minute
	}
	if c.RampDown == 0 {
		c.RampDown = 5 * time.Minute
	}
}

// Result summarizes a completed run.
type Result struct {
	// Throughput is completed operations per second during steady state —
	// the paper's "end-to-end throughput".
	Throughput      float64
	ReadThroughput  float64
	WriteThroughput float64
	Reads           int
	Writes          int
	Errors          int
	// Latency is the client-observed per-operation latency during steady
	// state, in milliseconds; ReadLatency and WriteLatency split it by
	// statement class (write latency includes the synchronization-model
	// commit wait, the cost of sync replication).
	Latency      metrics.Summary
	ReadLatency  metrics.Summary
	WriteLatency metrics.Summary
	// PerOp counts completed operations by name.
	PerOp map[string]int
}

// Driver runs the benchmark against a replicated database handle.
type Driver struct {
	DB  *core.DB
	Cfg Config

	steadyFrom sim.Time
	steadyTo   sim.Time

	reads, writes, errors int
	allOps, allErrs       int // every phase, not just steady state
	perOp                 map[string]int
	latency               metrics.Histogram
	latencyR, latencyW    metrics.Histogram

	nextEventID   int64
	nextAttID     int64
	nextTagRefID  int64
	nextCommentID int64
	nextUserID    int64
}

// NewDriver builds a driver; the database must already be preloaded at
// cfg.Scale.
func NewDriver(db *core.DB, cfg Config) *Driver {
	cfg.applyDefaults()
	return &Driver{
		DB:  db,
		Cfg: cfg,
		// Live inserts use an id space far above the preload's.
		nextEventID:   1_000_000,
		nextAttID:     1_000_000,
		nextTagRefID:  1_000_000,
		nextCommentID: 1_000_000,
		nextUserID:    1_000_000,
		perOp:         make(map[string]int),
	}
}

// Start launches the emulated users. Users begin staggered across the
// ramp-up phase, operate through steady state and exit during ramp-down.
// Only operations completed inside the steady window are counted. The
// returned function reports whether the run is finished.
func (d *Driver) Start(env *sim.Env) (done func() bool) {
	// Long runs overflow the latency histograms' sample cap; reservoir
	// replacement then draws from the env RNG so the run stays seeded.
	d.latency.SetRand(env.Rand())
	d.latencyR.SetRand(env.Rand())
	d.latencyW.SetRand(env.Rand())
	start := env.Now()
	d.steadyFrom = start + d.Cfg.RampUp
	d.steadyTo = d.steadyFrom + d.Cfg.Steady
	end := d.steadyTo + d.Cfg.RampDown
	remaining := d.Cfg.Users

	for i := 0; i < d.Cfg.Users; i++ {
		i := i
		env.Go(fmt.Sprintf("user%d", i), func(p *sim.Proc) {
			defer func() { remaining-- }()
			if len(d.Cfg.Stages) > 0 {
				d.runStaged(p, i, start, end)
				return
			}
			// Stagger arrival uniformly across ramp-up.
			if d.Cfg.Users > 1 {
				p.SleepUntil(start + time.Duration(int64(d.Cfg.RampUp)*int64(i)/int64(d.Cfg.Users)))
			}
			for p.Now() < end {
				d.oneOperation(p)
				p.Sleep(sim.Exp(p.Rand(), thinkTime))
			}
		})
	}
	return func() bool { return remaining == 0 }
}

// runStaged is the user loop under a stepped load ramp: the user operates
// only while the current stage's population includes it, parks until the
// next stage that does, and exits when no later stage will. A think-time
// jitter on each activation de-synchronizes the cohort a stage boundary
// wakes at once.
func (d *Driver) runStaged(p *sim.Proc, i int, start, end sim.Time) {
	active := false
	for p.Now() < end {
		on, next := d.Cfg.stageActive(i, time.Duration(p.Now()-start))
		if !on {
			active = false
			if next < 0 {
				return
			}
			p.SleepUntil(start + sim.Time(next))
			continue
		}
		if !active {
			active = true
			p.Sleep(time.Duration(p.Rand().Float64() * float64(thinkTime)))
			continue
		}
		d.oneOperation(p)
		p.Sleep(sim.Exp(p.Rand(), thinkTime))
	}
}

// SteadyWindow returns the measurement window on the virtual timeline.
func (d *Driver) SteadyWindow() (from, to sim.Time) { return d.steadyFrom, d.steadyTo }

// CompletedOps returns operations completed successfully in any phase —
// the cumulative counter chaos experiments sample to see throughput dip
// and recovery around a fault, wherever it lands on the timeline.
func (d *Driver) CompletedOps() int { return d.allOps }

// TotalErrors returns failed operations in any phase.
func (d *Driver) TotalErrors() int { return d.allErrs }

// Result computes the run summary; call after the simulation has run past
// the steady window.
func (d *Driver) Result() Result {
	sec := d.Cfg.Steady.Seconds()
	return Result{
		Throughput:      float64(d.reads+d.writes) / sec,
		ReadThroughput:  float64(d.reads) / sec,
		WriteThroughput: float64(d.writes) / sec,
		Reads:           d.reads,
		Writes:          d.writes,
		Errors:          d.errors,
		Latency:         d.latency.Summary(),
		ReadLatency:     d.latencyR.Summary(),
		WriteLatency:    d.latencyW.Summary(),
		PerOp:           d.perOp,
	}
}

// op is one user operation: a single SQL statement, as in the paper's
// customized Cloudstone where business logic executes directly on the
// database tier. The friend-feed page is the one exception — it is a
// two-statement sequence and supplies multi instead of sql.
type op struct {
	name  string
	sql   string
	args  []sqlengine.Value
	multi func(p *sim.Proc) error
}

func (d *Driver) oneOperation(p *sim.Proc) {
	rng := p.Rand()
	var o op
	isRead := rng.Float64() < d.Cfg.ReadRatio
	if isRead {
		o = d.readOp(rng)
	} else {
		o = d.writeOp(rng)
	}
	t0 := p.Now()
	var err error
	if o.multi != nil {
		err = o.multi(p)
	} else {
		_, err = d.DB.Exec(p, o.sql, o.args...)
	}
	inSteady := p.Now() >= d.steadyFrom && p.Now() < d.steadyTo
	if err != nil {
		d.allErrs++
		if inSteady {
			d.errors++
		}
		return
	}
	d.allOps++
	if inSteady {
		d.latency.Record(p.Now() - t0)
		d.perOp[o.name]++
		if isRead {
			d.reads++
			d.latencyR.Record(p.Now() - t0)
		} else {
			d.writes++
			d.latencyW.Record(p.Now() - t0)
		}
	}
}

// friendFeed renders the friend-feed page: the friend list is a single-key
// read served by the user's own cell, then the friends' newest events are
// fetched in one IN-list query. Under sharding that second statement
// scatter-gathers — the friends' events live on other cells — and its
// ORDER BY column is unprojected, exercising the merger's helper-column
// path. An empty friend list (live-registered user) renders an empty feed.
func (d *Driver) friendFeed(p *sim.Proc, uid int64) error {
	res, err := d.DB.Exec(p, "SELECT friend_id FROM friends WHERE user_id = ?", sqlengine.NewInt(uid))
	if err != nil {
		return err
	}
	rows := res.Result.Set.Rows
	if len(rows) == 0 {
		return nil
	}
	ph := make([]string, len(rows))
	args := make([]sqlengine.Value, len(rows))
	for i, r := range rows {
		ph[i] = "?"
		args[i] = r[0]
	}
	feed := "SELECT id, title FROM events WHERE creator_id IN (" + strings.Join(ph, ", ") +
		") ORDER BY created DESC LIMIT 10"
	_, err = d.DB.Exec(p, feed, args...)
	return err
}

// EventFeedSQL is the event-feed page: a creator's events with their
// attendees and attendee names, a three-way join. It is written in
// deliberately bad syntax order — attendance first, with the only selective
// predicate on events — so the cost-based planner's reordering (drive
// events via idx_creator, index-nested-loop the children) is what keeps the
// page cheap; the naive planner walks every attendance row per page view.
// The A-PLAN ablation measures exactly this difference in end-to-end ops/s,
// and its decision log explains this statement under both planner modes.
// Under sharding the users side of the join resolves cell-locally
// (attendance and events co-locate by event id; the feed tolerates a thin
// attendee list).
const EventFeedSQL = "SELECT e.id, e.title, u.username, a.created FROM attendance a " +
	"JOIN events e ON e.id = a.event_id JOIN users u ON u.id = a.user_id " +
	"WHERE e.creator_id = ? ORDER BY e.created DESC, a.id DESC LIMIT 10"

// seedID picks a random id from the preloaded range.
func (d *Driver) seedID(rng *rand.Rand) int64 { return int64(rng.Intn(d.Cfg.Scale)) + 1 }

func (d *Driver) readOp(rng *rand.Rand) op {
	if d.Cfg.CrossShard && rng.Float64() < 0.25 {
		uid := d.seedID(rng)
		return op{name: "friend-feed", multi: func(p *sim.Proc) error { return d.friendFeed(p, uid) }}
	}
	switch w := rng.Float64(); {
	case w < 0.20: // home page: newest events
		return op{"home", "SELECT id, title, event_date FROM events ORDER BY created DESC LIMIT 10", nil, nil}
	case w < 0.25: // event feed (EventFeedSQL): 3-way join the planner reorders
		return op{"event-feed", EventFeedSQL,
			[]sqlengine.Value{sqlengine.NewInt(d.seedID(rng))}, nil}
	case w < 0.40: // event detail
		return op{"event-detail", "SELECT * FROM events WHERE id = ?",
			[]sqlengine.Value{sqlengine.NewInt(d.seedID(rng))}, nil}
	case w < 0.50: // attendee list
		return op{"attendees", "SELECT user_id FROM attendance WHERE event_id = ?",
			[]sqlengine.Value{sqlengine.NewInt(d.seedID(rng))}, nil}
	case w < 0.60: // text search (full scan, data-size dependent)
		return op{"search-text", "SELECT id, title FROM events WHERE title LIKE ? LIMIT 10",
			[]sqlengine.Value{sqlengine.NewString(fmt.Sprintf("%%%d m%%", rng.Intn(d.Cfg.Scale)))}, nil}
	case w < 0.75: // tag search (indexed + join)
		return op{"search-tag",
			"SELECT e.id, e.title FROM event_tags et JOIN events e ON e.id = et.event_id WHERE et.tag_id = ? LIMIT 20",
			[]sqlengine.Value{sqlengine.NewInt(int64(rng.Intn(NumTags)) + 1)}, nil}
	case w < 0.85: // user profile
		return op{"profile", "SELECT * FROM users WHERE id = ?",
			[]sqlengine.Value{sqlengine.NewInt(d.seedID(rng))}, nil}
	case w < 0.95: // a user's events (indexed)
		return op{"user-events", "SELECT id, title FROM events WHERE creator_id = ?",
			[]sqlengine.Value{sqlengine.NewInt(d.seedID(rng))}, nil}
	default: // tag cloud (aggregate scan)
		return op{"tag-cloud",
			"SELECT tag_id, COUNT(*) AS cnt FROM event_tags GROUP BY tag_id ORDER BY cnt DESC LIMIT 10", nil, nil}
	}
}

func (d *Driver) writeOp(rng *rand.Rand) op {
	switch w := rng.Float64(); {
	case w < 0.25: // create event
		d.nextEventID++
		id := d.nextEventID
		return op{"create-event",
			"INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
			[]sqlengine.Value{
				sqlengine.NewInt(id),
				sqlengine.NewInt(d.seedID(rng)),
				sqlengine.NewString(fmt.Sprintf("Event %d meetup", id)),
				sqlengine.NewString("created during the benchmark run"),
			}, nil}
	case w < 0.55: // join (attend) an event
		d.nextAttID++
		return op{"join-event",
			"INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())",
			[]sqlengine.Value{
				sqlengine.NewInt(d.nextAttID),
				sqlengine.NewInt(d.seedID(rng)),
				sqlengine.NewInt(d.seedID(rng)),
			}, nil}
	case w < 0.75: // tag an event
		d.nextTagRefID++
		return op{"tag-event",
			"INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)",
			[]sqlengine.Value{
				sqlengine.NewInt(d.nextTagRefID),
				sqlengine.NewInt(d.seedID(rng)),
				sqlengine.NewInt(int64(rng.Intn(NumTags)) + 1),
			}, nil}
	case w < 0.95: // comment on an event
		d.nextCommentID++
		return op{"add-comment",
			"INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())",
			[]sqlengine.Value{
				sqlengine.NewInt(d.nextCommentID),
				sqlengine.NewInt(d.seedID(rng)),
				sqlengine.NewInt(d.seedID(rng)),
				sqlengine.NewString("sounds great, count me in"),
			}, nil}
	default: // edit event description
		return op{"update-event",
			"UPDATE events SET description = ? WHERE id = ?",
			[]sqlengine.Value{
				sqlengine.NewString("updated during the benchmark run"),
				sqlengine.NewInt(d.seedID(rng)),
			}, nil}
	}
}
