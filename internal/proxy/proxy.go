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
	"slices"
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

// Random picks a slave uniformly at random.
type Random struct{}

// Pick implements Balancer.
func (Random) Pick(ctx *PickContext) *repl.Slave {
	if len(ctx.Slaves) == 0 {
		return nil
	}
	return ctx.Slaves[ctx.Rng.Intn(len(ctx.Slaves))]
}

// LeastConn picks the slave with the fewest in-flight statements from this
// proxy.
type LeastConn struct{}

// Pick implements Balancer. Ties are broken uniformly at random so that an
// idle cluster (every count equal) spreads reads instead of hot-spotting
// the first slave.
func (LeastConn) Pick(ctx *PickContext) *repl.Slave {
	return pickLeast(ctx, func(sl *repl.Slave) uint64 { return uint64(ctx.Inflight(sl)) })
}

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

// Every proxy is robust the way Connector/J is: a statement that fails on an
// infrastructure error (retryable) is tried again after a backoff, a backend
// that fails evictAfter statements in a row sits out readmitAfter, and a
// benched master is the cue for the failover hook. The proxy learns that a
// backend is down only from these errors; it never asks the cloud.
const (
	// maxAttempts caps the attempts per statement.
	maxAttempts = 4
	// baseBackoff is the delay before the first retry; each further retry
	// doubles it up to maxBackoff.
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 2 * time.Second
	// jitterFrac spreads each backoff uniformly over ±jitterFrac of itself,
	// decorrelating retry storms.
	jitterFrac = 0.2
	// statementTimeout bounds each network leg of an attempt: against an
	// unreachable backend the attempt fails with ErrStatementTimeout after
	// this long.
	statementTimeout = 5 * time.Second
	// evictAfter benches a backend after this many consecutive errors; it
	// sits out readmitAfter before it is tried again.
	evictAfter   = 3
	readmitAfter = 30 * time.Second
)

// backoff returns the sleep before retry n (n ≥ 1): exponential growth,
// capped, with jitter. A statement draws it from the RNG only when it
// retries, so a fault-free run draws the same numbers as one without retries.
func backoff(n int, rng *rand.Rand) time.Duration {
	d := min(baseBackoff<<uint(n-1), maxBackoff)
	f := 1 + jitterFrac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// health is the proxy's error bookkeeping for one backend, master or slave:
// a promoted slave keeps its streak.
type health struct {
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

	// OnMasterFailure is invoked when a statement finds the master benched
	// (evictAfter errors in a row). It returns the master to use: a promoted
	// replica, or the current master when that is still running (the errors
	// came from a partition, not a crash) — which stays benched. Nil leaves a
	// benched master benched. shard.Routing.Proxy wires it to operator code
	// that asks the cloud before promoting.
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
	candidates []*repl.Slave // readCandidates' and noteError's scratch
	// pick is the context every read hands the balancer, filled in per read:
	// the balancer is done with it before the calling process yields, as it
	// is with candidates.
	pick        PickContext
	health      map[*server.DBServer]*health
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
		health:      make(map[*server.DBServer]*health),
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

// DrainTimeout is how long the elastic controller's graceful scale-in waits
// for the departing replica's in-flight reads.
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
	delete(px.health, sl.Srv)
	delete(px.quarantined, sl)
}

// Stats returns a snapshot of the routing counters.
func (px *Proxy) Stats() Stats { return px.stats }

// SetMaster re-points the proxy after a failover.
func (px *Proxy) SetMaster(m *repl.Master) { px.master = m }

// IsRead classifies a statement the way Connector/J does: by its leading
// verb, after stripping comments. SELECT, the one read the engine speaks, is
// safe to route to a replica; everything else takes the write path to the
// master.
func IsRead(sql string) bool { return leadingVerb(sql) == "SELECT" }

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

// Conn is one pooled client connection: a session on each backend server it
// has sent a statement to, opened by the first and kept in the connection's
// own table (server.Sessions), so a failover — the proxy re-pointing to a
// promoted master — never reuses a session bound to the dead server's engine.
type Conn struct {
	px   *Proxy
	db   string
	sess server.Sessions

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
	c := new(Conn)
	px.Open(c, db)
	return c
}

// Open is Connect into storage the caller keeps: a routed connection opens
// one connection per cell into the one array it holds them and their scatter
// slots in.
func (px *Proxy) Open(c *Conn, db string) { *c = Conn{px: px, db: db} }

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

// Reply is everything a routed statement hands back, in one allocation: the
// ExecResult the caller receives and the engine's Result, ResultSet and rows
// it points at. They live and die together; a retried attempt overwrites the
// engine's part, and so does the next statement run into the same Reply.
type Reply struct {
	exec ExecResult
	eng  sqlengine.Reply
}

// Exec routes and executes one statement, blocking the calling process for
// the network round trip, queueing and service time. A statement that
// commits — an autocommit write, DDL, COMMIT — also honors the cluster's
// synchronization model before returning. Retryable
// failures (dead or unreachable backends) are retried with exponential
// backoff; a benched master triggers the OnMasterFailure hook.
func (c *Conn) Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*ExecResult, error) {
	return c.ExecInto(p, new(Reply), sql, args...)
}

// ExecInto is Exec answering in the caller's Reply: the ExecResult returned
// is out's, valid until the next statement run into out.
func (c *Conn) ExecInto(p *sim.Proc, out *Reply, sql string, args ...sqlengine.Value) (*ExecResult, error) {
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
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			px.stats.Retries++
			p.Sleep(backoff(attempt-1, p.Rand()))
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
func (c *Conn) execOnce(p *sim.Proc, isRead bool, sql string, args []sqlengine.Value, out *Reply) error {
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
			return err
		}
		px.noteRead(tier, c, sl)
		out.exec = ExecResult{Result: res}
		return nil
	}

	if !px.masterUsable(p) {
		return ErrNoBackend
	}
	m := px.master
	before := m.Srv.Log.LastSeq()
	res, err := c.execOn(p, nil, sql, args, &out.eng)
	if err != nil {
		return err
	}
	// A statement after which the master's log has advanced committed: an
	// autocommit write, DDL, or a COMMIT, which logs the writes its
	// transaction held back. The connection's token moves to the log's end
	// and the synchronization model is waited for; another connection's
	// commit landing meanwhile only makes both stricter.
	degraded := false
	if last := m.Srv.Log.LastSeq(); last > before {
		c.token = Token{Epoch: m.Epoch, Seq: last}
		degraded = !m.WaitCommitted(p, last)
		if degraded {
			px.stats.DegradedCommits++
		}
	}
	out.exec = ExecResult{Result: res, OnMaster: true, Degraded: degraded}
	return nil
}

// masterUsable reports whether the master may serve a statement. A benched
// master is the failover hook's cue; the hook runs without yielding to the
// scheduler, so concurrent clients promote at most once per dead master. A
// hook that hands back the current master leaves it benched.
func (px *Proxy) masterUsable(p *sim.Proc) bool {
	if !px.benched(p, px.master.Srv) {
		return true
	}
	if px.OnMasterFailure == nil {
		return false
	}
	m, err := px.OnMasterFailure(p)
	if err != nil || m == nil || m == px.master {
		return false
	}
	delete(px.health, px.master.Srv)
	px.master = m
	px.stats.Failovers++
	return true
}

// readCandidates collects the slaves a read at the given tier may be served
// by, in one pass over the master's attached slaves: past the admission gate
// (warm-up quarantine), off the bench and fresh enough for the tier. The set
// lives in proxy-owned scratch: the balancer consumes it before the calling
// process can park, so no two reads ever hold it at once.
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
		if px.quarantined[sl] || px.benched(p, sl.Srv) {
			continue
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

// benched reports whether srv sits out its eviction window. A backend whose
// window has passed comes off the bench here, its streak cleared, and is
// tried again; a slave's return counts as a readmission.
func (px *Proxy) benched(p *sim.Proc, srv *server.DBServer) bool {
	h := px.health[srv]
	if h == nil || !h.evicted {
		return false
	}
	if p.Now() < h.evictedUntil {
		return true
	}
	h.evicted, h.consecErrs = false, 0
	if srv != px.master.Srv {
		px.stats.SlaveReadmissions++
	}
	return false
}

// noteError records a retryable error from srv and benches it at evictAfter
// in a row; a slave's bench counts as an eviction. An error from a server
// that is neither the master nor an attached slave any more — the old master
// answering after a failover, a slave detached mid-statement — is recorded
// nowhere: the proxy will not route to it again.
func (px *Proxy) noteError(p *sim.Proc, srv *server.DBServer) {
	if srv != px.master.Srv {
		px.candidates = px.master.AppendSlaves(px.candidates[:0])
		if !slices.ContainsFunc(px.candidates, func(sl *repl.Slave) bool { return sl.Srv == srv }) {
			return
		}
	}
	h := px.health[srv]
	if h == nil {
		h = &health{}
		px.health[srv] = h
	}
	h.consecErrs++
	if !h.evicted && h.consecErrs >= evictAfter {
		h.evicted = true
		h.evictedUntil = p.Now() + readmitAfter
		if srv != px.master.Srv {
			px.stats.SlaveEvictions++
		}
	}
}

// execOn runs sql on the chosen backend (nil = master), the engine answering
// in out, and keeps the backend's error streak: a retryable error extends it,
// any answer — an SQL error too — clears it.
func (c *Conn) execOn(p *sim.Proc, sl *repl.Slave, sql string, args []sqlengine.Value, out *sqlengine.Reply) (*sqlengine.Result, error) {
	px := c.px
	srv := px.master.Srv
	if sl != nil {
		srv = sl.Srv
	}
	res, err := c.roundTrip(p, srv, sql, args, out)
	if retryable(err) {
		px.noteError(p, srv)
	} else if h := px.health[srv]; h != nil {
		h.consecErrs = 0
	}
	return res, err
}

// roundTrip is one attempt on srv with its network legs. Each leg honors the
// statement timeout: a partitioned path fails the attempt with
// ErrStatementTimeout instead of hanging forever, and a backend that died
// while the request was on the wire answers server.ErrServerDown.
func (c *Conn) roundTrip(p *sim.Proc, srv *server.DBServer, sql string, args []sqlengine.Value, out *sqlengine.Reply) (*sqlengine.Result, error) {
	px := c.px
	asp := px.Tracer.StartSpan(p, "proxy", "attempt")
	asp.SetAttr("backend", srv.Name)
	sess := c.sess.On(srv, c.db)
	if !px.net.TransitTimeout(p, px.client, srv.Inst.Place, statementTimeout) {
		px.stats.Timeouts++
		asp.SetAttr("error", "timeout")
		asp.End(p)
		return nil, ErrStatementTimeout
	}
	res, err := srv.ExecInto(p, sess, out, sql, args...)
	if err != nil {
		asp.SetAttr("error", "exec")
		asp.End(p)
		return nil, err
	}
	if !px.net.TransitTimeout(p, srv.Inst.Place, px.client, statementTimeout) {
		px.stats.Timeouts++
		asp.SetAttr("error", "timeout")
		asp.End(p)
		return nil, ErrStatementTimeout
	}
	asp.End(p)
	return res, nil
}
