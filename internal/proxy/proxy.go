// Package proxy implements a read/write-splitting database proxy in the
// style of MySQL Connector/J's load-balancing driver, the routing component
// of the paper's customized Cloudstone stack: every write statement goes to
// the master, every read is distributed over the slave replicas by a
// pluggable balancer, among the backends the consistency tier admits (the
// Bounded tier is the paper's suggested "smart load balancer" future work).
package proxy

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// ErrNoBackend is returned when no live server can serve the statement.
var ErrNoBackend = errors.New("proxy: no live backend available")

// ErrStatementTimeout is returned when a statement's network leg exceeds
// the per-statement timeout (a partitioned or unresponsive backend).
var ErrStatementTimeout = errors.New("proxy: statement timed out")

// ErrWrongShard is returned when a statement reaches a proxy whose backend
// cell does not own the statement's shard key — the client routed on a
// stale shard map (or hit the brief cutover barrier of an online split).
// It is deliberately NOT retryable at this proxy: retrying against the
// same cell can never succeed. The shard router handles it by refreshing
// its map snapshot and re-routing to the current owner.
var ErrWrongShard = errors.New("proxy: statement not owned by this shard cell")

// PickContext is what a Balancer sees when routing one read.
type PickContext struct {
	Master   *repl.Master
	Slaves   []*repl.Slave // live, attached slaves
	Inflight func(*repl.Slave) int
	Rng      *rand.Rand

	ties []*repl.Slave // pickLeast's scratch; the proxy's context keeps it from read to read
}

// Balancer chooses a slave for a read statement. Returning nil routes the
// read to the master (the fallback when no slave qualifies).
type Balancer interface {
	Pick(ctx *PickContext) *repl.Slave
	Name() string
}

// RoundRobin cycles through slaves — the Connector/J default.
type RoundRobin struct{ next int }

// Pick implements Balancer.
func (b *RoundRobin) Pick(ctx *PickContext) *repl.Slave {
	if len(ctx.Slaves) == 0 {
		return nil
	}
	sl := ctx.Slaves[b.next%len(ctx.Slaves)]
	b.next++
	return sl
}

// Name implements Balancer.
func (b *RoundRobin) Name() string { return "round-robin" }

// Random picks a slave uniformly at random.
type Random struct{}

// Pick implements Balancer.
func (Random) Pick(ctx *PickContext) *repl.Slave {
	if len(ctx.Slaves) == 0 {
		return nil
	}
	return ctx.Slaves[ctx.Rng.Intn(len(ctx.Slaves))]
}

// Name implements Balancer.
func (Random) Name() string { return "random" }

// LeastConn picks the slave with the fewest in-flight statements from this
// proxy.
type LeastConn struct{}

// Pick implements Balancer. Ties are broken uniformly at random so that an
// idle cluster (every count equal) spreads reads instead of hot-spotting
// the first slave.
func (LeastConn) Pick(ctx *PickContext) *repl.Slave {
	return pickLeast(ctx, func(sl *repl.Slave) uint64 { return uint64(ctx.Inflight(sl)) })
}

// Name implements Balancer.
func (LeastConn) Name() string { return "least-conn" }

// LeastLag picks the slave fewest binlog events behind the master.
type LeastLag struct{}

// Pick implements Balancer. Ties (e.g. every slave fully caught up under
// light load) are broken uniformly at random instead of always returning
// the first slave.
func (LeastLag) Pick(ctx *PickContext) *repl.Slave {
	return pickLeast(ctx, (*repl.Slave).EventsBehindMaster)
}

// pickLeast returns the slave with the lowest score, resolving a tie for
// best via the routing RNG (which is drawn from only then); nil when there
// are no slaves. The tie list is the context's scratch, so a pick allocates
// nothing.
func pickLeast(ctx *PickContext, score func(*repl.Slave) uint64) *repl.Slave {
	ties := ctx.ties[:0]
	best := uint64(math.MaxUint64)
	for _, sl := range ctx.Slaves {
		switch n := score(sl); {
		case n < best:
			best = n
			ties = append(ties[:0], sl)
		case n == best:
			ties = append(ties, sl)
		}
	}
	ctx.ties = ties
	switch len(ties) {
	case 0:
		return nil
	case 1:
		return ties[0]
	default:
		return ties[ctx.Rng.Intn(len(ties))]
	}
}

// Name implements Balancer.
func (LeastLag) Name() string { return "least-lag" }

// DefaultMaxEventsBehind is the staleness bound a Bounded-tier proxy applies
// when MaxStaleEvents is left unset: roughly the backlog a healthy zone-local
// slave clears within a heartbeat interval, loose enough to keep reads off
// the master.
const DefaultMaxEventsBehind = 64

// Stats counts proxy routing decisions and robustness outcomes. The metric
// tag is the name obs.Flatten publishes a field under (after "proxy.").
type Stats struct {
	Reads           uint64 `metric:"reads"`
	Writes          uint64 `metric:"writes"`
	MasterFallbacks uint64 `metric:"master_fallbacks"` // reads served by the master
	Errors          uint64 `metric:"errors"`           // statements that failed after all retries

	// Robustness outcome counters.
	Retries           uint64 `metric:"retries"`            // statement re-attempts after a retryable error
	Timeouts          uint64 `metric:"timeouts"`           // attempts abandoned at the statement timeout
	SlaveEvictions    uint64 `metric:"slave_evictions"`    // slaves benched after repeated errors
	SlaveReadmissions uint64 `metric:"slave_readmissions"` // benched slaves returned to rotation
	Failovers         uint64 `metric:"failovers"`          // master promotions triggered by this proxy
	DegradedCommits   uint64 `metric:"degraded_commits"`   // semi-sync commits that timed out to async
	WrongShard        uint64 `metric:"wrong_shard"`        // statements rejected by the ownership check

	// Consistency-tier counters: reads served under each tier, epoch
	// fallbacks (session reads forced to the master because their token
	// predates the current master's reign), total binlog events the serving
	// backends were observed behind, and read-your-writes compliance
	// (checked = reads with a comparable token, compliant = the backend had
	// applied the connection's newest write).
	EventualReads       uint64 `metric:"consistency.eventual.reads"`
	BoundedReads        uint64 `metric:"consistency.bounded.reads"`
	SessionReads        uint64 `metric:"consistency.session.reads"`
	StrongReads         uint64 `metric:"consistency.strong.reads"`
	EpochFallbacks      uint64 `metric:"consistency.epoch_fallbacks"`
	StaleEventsObserved uint64 `metric:"consistency.stale_events_observed"`
	RYWChecked          uint64 `metric:"consistency.ryw_checked"`
	RYWCompliant        uint64 `metric:"consistency.ryw_compliant"`
}

// Add accumulates o into s, field by field — how a handle fronting several
// cells reports one proxy total. TestStatsAddCoversEveryField fails when a
// counter is added to the struct and not here.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.MasterFallbacks += o.MasterFallbacks
	s.Errors += o.Errors
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.SlaveEvictions += o.SlaveEvictions
	s.SlaveReadmissions += o.SlaveReadmissions
	s.Failovers += o.Failovers
	s.DegradedCommits += o.DegradedCommits
	s.WrongShard += o.WrongShard
	s.EventualReads += o.EventualReads
	s.BoundedReads += o.BoundedReads
	s.SessionReads += o.SessionReads
	s.StrongReads += o.StrongReads
	s.EpochFallbacks += o.EpochFallbacks
	s.StaleEventsObserved += o.StaleEventsObserved
	s.RYWChecked += o.RYWChecked
	s.RYWCompliant += o.RYWCompliant
}

// RetryPolicy configures client-side robustness: bounded retries with
// exponential backoff + jitter, a per-statement timeout, automatic slave
// eviction/readmission on repeated errors, and master-failure detection.
// The zero value disables everything (single attempt, legacy behaviour).
type RetryPolicy struct {
	// MaxAttempts caps total attempts per statement (≤1 = no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = no cap).
	MaxBackoff time.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of
	// itself, decorrelating retry storms.
	JitterFrac float64
	// StatementTimeout bounds each attempt's network legs; an attempt
	// against an unreachable backend fails with ErrStatementTimeout after
	// this long (0 = cloud.DefaultTransitTimeout when partitioned).
	StatementTimeout time.Duration
	// EvictAfter benches a slave after this many consecutive errors
	// (0 = never evict).
	EvictAfter int
	// ReadmitAfter is how long an evicted slave sits out before it is
	// probed again (0 = 30 s when EvictAfter is set).
	ReadmitAfter time.Duration
	// FailoverOnMasterDown lets the proxy invoke its OnMasterFailure hook
	// when a statement finds the master dead, promoting a slave instead of
	// returning ErrNoBackend forever.
	FailoverOnMasterDown bool
}

// DefaultRetryPolicy returns the robustness defaults used by the chaos
// experiments: 4 attempts, 100 ms→2 s backoff with 20% jitter, 5 s
// statement timeout, eviction after 3 consecutive errors with 30 s
// readmission, and automatic failover.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:          4,
		BaseBackoff:          100 * time.Millisecond,
		MaxBackoff:           2 * time.Second,
		JitterFrac:           0.2,
		StatementTimeout:     5 * time.Second,
		EvictAfter:           3,
		ReadmitAfter:         30 * time.Second,
		FailoverOnMasterDown: true,
	}
}

func (rp RetryPolicy) attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

func (rp RetryPolicy) readmitAfter() time.Duration {
	if rp.ReadmitAfter <= 0 {
		return 30 * time.Second
	}
	return rp.ReadmitAfter
}

// backoff returns the sleep before retry attempt n (n ≥ 1), with
// exponential growth and jitter.
func (rp RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	base := rp.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(n-1)
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	if rp.JitterFrac > 0 {
		f := 1 + rp.JitterFrac*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// slaveHealth is the proxy's per-slave error bookkeeping.
type slaveHealth struct {
	consecErrs   int
	evicted      bool
	evictedUntil sim.Time
}

// Proxy routes statements from a client placement to a replicated cluster.
type Proxy struct {
	env      *sim.Env
	net      *cloud.Network
	master   *repl.Master
	balancer Balancer
	client   cloud.Placement

	// Consistency selects the read tier (see the Consistency type); the
	// zero value is Eventual. Set via core.WithConsistency.
	Consistency Consistency

	// MaxStaleEvents is the Bounded tier's staleness bound in binlog
	// events; zero applies DefaultMaxEventsBehind.
	MaxStaleEvents uint64

	// Retry configures client-side robustness; the zero value is a single
	// attempt per statement.
	Retry RetryPolicy

	// OnMasterFailure, when set together with Retry.FailoverOnMasterDown,
	// is invoked (at most once per dead master) when a statement finds the
	// master down; it should promote a replica and return the new master.
	// shard.Routing.Proxy wires it to the cluster's Failover.
	OnMasterFailure func(p *sim.Proc) (*repl.Master, error)

	// Tracer, when set, records a "proxy" route span per statement and one
	// attempt span per routed backend try. Nil disables tracing.
	Tracer *obs.Tracer

	// CheckOwner, when set, validates a statement against this proxy's
	// backend cell before any routing happens: a sharded deployment installs
	// a hook that extracts the statement's shard key and returns
	// ErrWrongShard when another cell owns it. The check runs once per
	// statement (not per retry attempt) because its verdict cannot change by
	// retrying here.
	CheckOwner func(sql string, args []sqlengine.Value) error

	inflight   map[*repl.Slave]int
	candidates []*repl.Slave // readCandidates' scratch
	// pick is the context every read hands the balancer, filled in per read:
	// the balancer is done with it before the calling process yields, as it
	// is with candidates.
	pick        PickContext
	health      map[*repl.Slave]*slaveHealth
	quarantined map[*repl.Slave]bool
	stats       Stats
}

// New creates a proxy for clients at clientPlace.
func New(env *sim.Env, net *cloud.Network, master *repl.Master, clientPlace cloud.Placement, balancer Balancer) *Proxy {
	if balancer == nil {
		balancer = &RoundRobin{}
	}
	px := &Proxy{
		env: env, net: net, master: master, balancer: balancer,
		client:      clientPlace,
		inflight:    make(map[*repl.Slave]int),
		health:      make(map[*repl.Slave]*slaveHealth),
		quarantined: make(map[*repl.Slave]bool),
	}
	px.pick.Inflight = px.InflightReads
	return px
}

// Quarantine removes sl from the read rotation without detaching it from
// replication: a warming-up replica keeps catching up on its backlog but
// serves no client reads until Admit. Scale-in uses the same gate to stop
// new reads before draining and terminating a node.
func (px *Proxy) Quarantine(sl *repl.Slave) { px.quarantined[sl] = true }

// Admit returns a quarantined slave to the read rotation.
func (px *Proxy) Admit(sl *repl.Slave) { delete(px.quarantined, sl) }

// Quarantined reports whether sl is currently gated out of the rotation.
func (px *Proxy) Quarantined(sl *repl.Slave) bool { return px.quarantined[sl] }

// InflightReads returns the number of reads this proxy currently has
// outstanding against sl — the drain condition for graceful scale-in.
func (px *Proxy) InflightReads(sl *repl.Slave) int { return px.inflight[sl] }

// DrainTimeout is how long a graceful scale-in — the elastic controller's or
// core.DB.Scale's — waits for the departing replica's in-flight reads.
const DrainTimeout = 30 * time.Second

// Drain quarantines sl and blocks the calling process until no read is in
// flight against it or timeout elapses. It returns the number of reads still
// outstanding — zero means the node can be terminated without any client
// observing a dying backend.
func (px *Proxy) Drain(p *sim.Proc, sl *repl.Slave, timeout time.Duration) int {
	px.Quarantine(sl)
	deadline := p.Now() + timeout
	for px.inflight[sl] > 0 && p.Now() < deadline {
		p.Sleep(10 * time.Millisecond)
	}
	return px.inflight[sl]
}

// Forget drops all per-slave bookkeeping for a removed replica so the maps
// do not grow without bound across scale-out/scale-in cycles.
func (px *Proxy) Forget(sl *repl.Slave) {
	delete(px.inflight, sl)
	delete(px.health, sl)
	delete(px.quarantined, sl)
}

// Stats returns a snapshot of the routing counters.
func (px *Proxy) Stats() Stats { return px.stats }

// Balancer returns the active balancer.
func (px *Proxy) Balancer() Balancer { return px.balancer }

// Master returns the routed master.
func (px *Proxy) Master() *repl.Master { return px.master }

// SetMaster re-points the proxy after a failover.
func (px *Proxy) SetMaster(m *repl.Master) { px.master = m }

// IsRead classifies a statement the way Connector/J does: by its leading
// verb, after stripping comments. SELECT, SHOW, DESCRIBE/DESC and EXPLAIN
// are read-only and safe to route to a replica; everything else takes the
// write path to the master.
func IsRead(sql string) bool {
	verb := leadingVerb(sql)
	switch verb {
	case "SELECT", "SHOW", "DESCRIBE", "DESC", "EXPLAIN":
		return true
	}
	return false
}

// leadingVerb returns the first keyword of sql, upper-cased, after
// skipping leading whitespace and SQL comments (/* ... */, -- line, # line).
func leadingVerb(sql string) string {
	s := sql
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		switch {
		case strings.HasPrefix(s, "/*"):
			end := strings.Index(s[2:], "*/")
			if end < 0 {
				return "" // unterminated comment: not classifiable as a read
			}
			s = s[2+end+2:]
		case strings.HasPrefix(s, "--"), strings.HasPrefix(s, "#"):
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				return ""
			}
			s = s[nl+1:]
		default:
			end := 0
			for end < len(s) {
				c := s[end]
				if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
					end++
					continue
				}
				break
			}
			return strings.ToUpper(s[:end])
		}
	}
}

// Conn is one pooled client connection: lazily-opened sessions against each
// backend server it has touched. Sessions are keyed by server identity so a
// failover (the proxy re-pointing to a promoted master) never reuses a
// session bound to the dead server's engine.
type Conn struct {
	px   *Proxy
	db   string
	sess map[*server.DBServer]*sqlengine.Session

	// token is the read-your-writes watermark after this connection's most
	// recent write: (master epoch, binlog seq). The epoch makes the
	// watermark failover-safe — sequences from a previous master are never
	// compared against the promoted master's numbering.
	token Token
}

// SetToken overrides the watermark; it is merged via Token.Max so a
// restored token can only tighten, never relax, the session guarantee.
func (c *Conn) SetToken(t Token) { c.token = c.token.Max(t) }

// Connect opens a connection with the given default database.
func (px *Proxy) Connect(db string) *Conn {
	return &Conn{px: px, db: db, sess: make(map[*server.DBServer]*sqlengine.Session)}
}

// ExecResult is a routed statement's outcome.
type ExecResult struct {
	Result *sqlengine.Result
	// OnMaster reports where the statement ran.
	OnMaster bool
	// Degraded reports a semi-sync commit that timed out to async.
	Degraded bool
	// Latency is the client-observed round-trip.
	Latency time.Duration
}

// reply is everything a routed statement hands back, in one allocation: the
// ExecResult the caller receives and the engine's Result and ResultSet it
// points at. The three live and die together; a retried attempt overwrites
// the engine's part.
type reply struct {
	exec ExecResult
	eng  sqlengine.Reply
}

// Exec routes and executes one statement, blocking the calling process for
// the network round trip, queueing and service time. Write statements also
// honor the cluster's synchronization model before returning. Retryable
// failures (dead or unreachable backends) are retried with exponential
// backoff per the proxy's RetryPolicy; a dead master triggers the
// OnMasterFailure hook (slave promotion) when the policy allows it.
func (c *Conn) Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*ExecResult, error) {
	start := p.Now()
	px := c.px
	isRead := IsRead(sql)
	if isRead {
		px.stats.Reads++
	} else {
		px.stats.Writes++
	}
	sp := px.Tracer.StartSpan(p, "proxy", "route")
	if isRead {
		sp.SetAttr("kind", "read")
	} else {
		sp.SetAttr("kind", "write")
	}
	if px.CheckOwner != nil {
		if err := px.CheckOwner(sql, args); err != nil {
			px.stats.WrongShard++
			sp.SetAttr("error", "wrong-shard")
			sp.End(p)
			return nil, err
		}
	}
	attempts := px.Retry.attempts()
	var lastErr error
	out := new(reply)
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			px.stats.Retries++
			p.Sleep(px.Retry.backoff(attempt-1, p.Rand()))
		}
		err := c.execOnce(p, isRead, sql, args, out)
		if err == nil {
			out.exec.Latency = p.Now() - start
			sp.SetAttrInt("attempts", int64(attempt))
			sp.End(p)
			return &out.exec, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	px.stats.Errors++
	sp.SetAttr("error", "all-attempts-failed")
	sp.End(p)
	return nil, lastErr
}

// retryable reports whether an error may clear on a different backend or a
// later attempt (infrastructure faults, not SQL errors). ErrWrongShard is
// deliberately excluded: a misrouted statement fails identically on every
// attempt against this cell, so blind retries would only add latency — the
// shard router must refresh its map and re-route instead.
func retryable(err error) bool {
	return errors.Is(err, ErrNoBackend) ||
		errors.Is(err, ErrStatementTimeout) ||
		errors.Is(err, server.ErrServerDown)
}

// execOnce is a single routed attempt, answered in out.
func (c *Conn) execOnce(p *sim.Proc, isRead bool, sql string, args []sqlengine.Value, out *reply) error {
	px := c.px
	if isRead {
		// The consistency tier filters which backends qualify; the balancer
		// then picks among the qualifiers. An empty candidate set falls back
		// to the master below.
		tier := px.Consistency
		candidates := c.readCandidates(p, tier)
		var sl *repl.Slave
		if tier != Strong {
			px.pick.Master, px.pick.Slaves, px.pick.Rng = px.master, candidates, p.Rand()
			sl = px.balancer.Pick(&px.pick)
		}
		if sl == nil {
			// Master fallback (strong tier, no slaves, or none fresh enough).
			if !px.masterUsable(p) {
				return ErrNoBackend
			}
			px.stats.MasterFallbacks++
			res, err := c.execOn(p, nil, sql, args, &out.eng)
			if err != nil {
				return err
			}
			px.noteRead(tier, c, nil)
			if !c.token.IsZero() && c.token.Epoch != px.master.Epoch {
				// The read crossed a master epoch boundary — whether the
				// stale token emptied the candidate set up front or the
				// fallback itself triggered the failover. The master has
				// now shown this session the new timeline's state; adopt it
				// so later reads stay monotonic without pinning the session
				// to the master forever.
				px.stats.EpochFallbacks++
				c.token = Token{Epoch: px.master.Epoch, Seq: px.master.Srv.Log.LastSeq()}
			}
			out.exec = ExecResult{Result: res, OnMaster: true}
			return nil
		}
		px.inflight[sl]++
		res, err := c.execOn(p, sl, sql, args, &out.eng)
		px.inflight[sl]--
		if err != nil {
			px.noteSlaveError(p, sl)
			return err
		}
		px.noteSlaveOK(sl)
		px.noteRead(tier, c, sl)
		out.exec = ExecResult{Result: res}
		return nil
	}

	if !px.masterUsable(p) {
		return ErrNoBackend
	}
	res, err := c.execOn(p, nil, sql, args, &out.eng)
	if err != nil {
		return err
	}
	degraded := false
	if res.Stats.Class == sqlengine.ClassWrite {
		c.token = Token{Epoch: px.master.Epoch, Seq: px.master.Srv.Log.LastSeq()}
		degraded = !px.master.WaitCommitted(p, c.token.Seq)
		if degraded {
			px.stats.DegradedCommits++
		}
	}
	out.exec = ExecResult{Result: res, OnMaster: true, Degraded: degraded}
	return nil
}

// masterUsable reports whether the master can serve a statement, invoking
// the failover hook first when the master is dead and the policy allows
// promotion. The hook runs without yielding to the scheduler, so at most
// one promotion happens per dead master even with many concurrent clients.
func (px *Proxy) masterUsable(p *sim.Proc) bool {
	if px.master.Srv.Up() {
		return true
	}
	if !px.Retry.FailoverOnMasterDown || px.OnMasterFailure == nil {
		return false
	}
	m, err := px.OnMasterFailure(p)
	if err != nil || m == nil {
		return false
	}
	px.master = m
	px.stats.Failovers++
	return m.Srv.Up()
}

// readCandidates collects the slaves a read at the given tier may be served
// by, in one pass over the master's attached slaves: running, past the
// admission gate (warm-up quarantine), off the eviction bench — benched
// slaves are skipped until their ReadmitAfter window passes, then counted as
// readmitted and probed again — and fresh enough for the tier. The set lives
// in proxy-owned scratch: the balancer consumes it before the calling process
// can park, so no two reads ever hold it at once.
func (c *Conn) readCandidates(p *sim.Proc, tier Consistency) []*repl.Slave {
	px := c.px
	if tier == Strong {
		return nil // master only; never consult the slave set
	}
	var bound uint64
	if tier == Bounded {
		bound = px.staleBound()
	}
	all := px.master.AppendSlaves(px.candidates[:0])
	out := all[:0]
	for _, sl := range all {
		if !sl.Srv.Up() || px.quarantined[sl] {
			continue
		}
		if h := px.health[sl]; px.Retry.EvictAfter > 0 && h != nil && h.evicted {
			if p.Now() < h.evictedUntil {
				continue
			}
			h.evicted = false
			h.consecErrs = 0
			px.stats.SlaveReadmissions++
		}
		if tier == Session && !c.token.IsZero() && sl.AppliedSeq() < c.token.Seq {
			continue
		}
		if tier == Bounded && sl.EventsBehindMaster() > bound {
			continue
		}
		out = append(out, sl)
	}
	px.candidates = all
	if tier == Session && !c.token.IsZero() && c.token.Epoch != px.master.Epoch {
		// Token minted under a previous master: its sequence is not
		// comparable here. Serve from the master, which re-mints the token
		// on the new timeline.
		return nil
	}
	return out
}

// noteSlaveError records a failed read on sl and benches it after
// EvictAfter consecutive errors.
func (px *Proxy) noteSlaveError(p *sim.Proc, sl *repl.Slave) {
	if px.Retry.EvictAfter <= 0 {
		return
	}
	h := px.health[sl]
	if h == nil {
		h = &slaveHealth{}
		px.health[sl] = h
	}
	h.consecErrs++
	if !h.evicted && h.consecErrs >= px.Retry.EvictAfter {
		h.evicted = true
		h.evictedUntil = p.Now() + px.Retry.readmitAfter()
		px.stats.SlaveEvictions++
	}
}

// noteSlaveOK clears sl's consecutive-error streak.
func (px *Proxy) noteSlaveOK(sl *repl.Slave) {
	if h := px.health[sl]; h != nil {
		h.consecErrs = 0
	}
}

// Query is Exec returning the result set.
func (c *Conn) Query(p *sim.Proc, sql string, args ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	res, err := c.Exec(p, sql, args...)
	if err != nil {
		return nil, err
	}
	if res.Result.Set == nil {
		return nil, errors.New("proxy: statement returned no result set")
	}
	return res.Result.Set, nil
}

// execOn runs sql on the chosen backend (nil = master) with network legs,
// the engine answering in out. Each leg honors the per-statement timeout: a
// partitioned path fails the attempt with ErrStatementTimeout instead of
// hanging forever.
func (c *Conn) execOn(p *sim.Proc, sl *repl.Slave, sql string, args []sqlengine.Value, out *sqlengine.Reply) (*sqlengine.Result, error) {
	px := c.px
	srv := px.master.Srv
	if sl != nil {
		srv = sl.Srv
	}
	asp := px.Tracer.StartSpan(p, "proxy", "attempt")
	asp.SetAttr("backend", srv.Name)
	sess := c.sess[srv]
	if sess == nil {
		sess = srv.Session(c.db)
		c.sess[srv] = sess
	}
	if !px.net.TransitTimeout(p, px.client, srv.Inst.Place, px.Retry.StatementTimeout) {
		px.stats.Timeouts++
		asp.SetAttr("error", "timeout")
		asp.End(p)
		return nil, ErrStatementTimeout
	}
	// The backend can die while the request is on the wire.
	if !srv.Up() {
		asp.SetAttr("error", "down")
		asp.End(p)
		return nil, ErrNoBackend
	}
	res, err := srv.ExecInto(p, sess, out, sql, args...)
	if err != nil {
		asp.SetAttr("error", "exec")
		asp.End(p)
		return nil, err
	}
	if !px.net.TransitTimeout(p, srv.Inst.Place, px.client, px.Retry.StatementTimeout) {
		px.stats.Timeouts++
		asp.SetAttr("error", "timeout")
		asp.End(p)
		return nil, ErrStatementTimeout
	}
	asp.End(p)
	return res, nil
}
