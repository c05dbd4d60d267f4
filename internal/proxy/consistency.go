package proxy

import "cloudrepl/internal/repl"

// This file defines the proxy's client-selectable consistency tiers. The
// tier is an eligibility filter applied to the live slave set before the
// balancer picks: the balancer still decides *which* qualifying backend
// serves the read, the tier decides which backends qualify at all.
//
//	Eventual — any admitted slave; maximum read scale, unbounded staleness.
//	Bounded  — slaves within a staleness bound (events behind the master).
//	Session  — read-your-writes: only slaves that have applied this
//	           connection's newest write, tracked by an epoch-aware token.
//	Strong   — master only; linearizable reads at master-capacity cost.

// Consistency selects the read-consistency tier a proxy enforces.
type Consistency uint8

// Consistency tiers, weakest to strongest.
const (
	// Eventual routes reads to any admitted slave (the default).
	Eventual Consistency = iota
	// Bounded restricts reads to slaves at most MaxStaleEvents binlog
	// events behind the master, falling back to the master when none
	// qualifies.
	Bounded
	// Session guarantees read-your-writes per connection via Token.
	Session
	// Strong serves every read from the master.
	Strong
)

func (c Consistency) String() string {
	switch c {
	case Bounded:
		return "bounded"
	case Session:
		return "session"
	case Strong:
		return "strong"
	default:
		return "eventual"
	}
}

// Token is a session-consistency watermark in GTID style: the master epoch
// it was minted under and the binlog sequence of the connection's newest
// write. Sequences are only comparable within one epoch — failover promotes
// a slave under a new epoch precisely because the old master's tail may be
// lost, so a token from a previous epoch routes the read to the master and
// is re-minted there instead of being compared against incomparable
// sequence numbers.
type Token struct {
	Epoch uint64
	Seq   uint64
}

// IsZero reports whether the token carries no write to read behind.
func (t Token) IsZero() bool { return t.Epoch == 0 && t.Seq == 0 }

// Max returns the later of two tokens: the higher epoch wins, then the
// higher sequence. Scatter-gather routing merges per-cell tokens with it.
func (t Token) Max(o Token) Token {
	if o.Epoch > t.Epoch || (o.Epoch == t.Epoch && o.Seq > t.Seq) {
		return o
	}
	return t
}

// staleBound resolves the Bounded tier's event bound, applying the default
// when unset.
func (px *Proxy) staleBound() uint64 {
	if px.MaxStaleEvents == 0 {
		return DefaultMaxEventsBehind
	}
	return px.MaxStaleEvents
}

// noteRead records one served read for the tier's observability counters:
// the per-tier count, the staleness actually observed (binlog events the
// serving backend was behind, 0 on the master), and read-your-writes
// compliance — whether the backend had applied the connection's newest
// write. Compliance is measured in every tier (the token is minted on every
// write), which is what lets an experiment show Session holding 100% where
// Eventual drifts.
func (px *Proxy) noteRead(tier Consistency, c *Conn, sl *repl.Slave) {
	switch tier {
	case Bounded:
		px.stats.BoundedReads++
	case Session:
		px.stats.SessionReads++
	case Strong:
		px.stats.StrongReads++
	default:
		px.stats.EventualReads++
	}
	var behind uint64
	if sl != nil {
		behind = sl.EventsBehindMaster()
	}
	px.stats.StaleEventsObserved += behind
	if !c.token.IsZero() && c.token.Epoch == px.master.Epoch {
		px.stats.RYWChecked++
		applied := px.master.Srv.Log.LastSeq()
		if sl != nil {
			applied = sl.AppliedSeq()
		}
		if applied >= c.token.Seq {
			px.stats.RYWCompliant++
		}
	}
}
