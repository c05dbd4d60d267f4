package vclock

import (
	"math"
	"time"

	"cloudrepl/internal/sim"
)

// NTPConfig describes the accuracy and cadence of an instance's NTP daemon.
//
// An NTP correction cannot be perfect: the estimate of the server offset is
// polluted by asymmetric network delay (a roughly constant per-path Bias)
// and per-exchange queueing noise (JitterSigma). After a sync, the clock's
// true offset is Bias + N(0, JitterSigma) rather than zero. Synchronizing
// against multiple servers narrows the jitter by averaging.
type NTPConfig struct {
	// Interval between synchronizations. The paper contrasts syncing once
	// at startup (Amazon's relaxed default, every couple of hours) with
	// syncing every second.
	Interval time.Duration
	// Bias is the residual offset caused by asymmetric network paths to the
	// time servers; it persists across syncs.
	Bias time.Duration
	// JitterSigma is the standard deviation of the per-sync measurement
	// error.
	JitterSigma time.Duration
	// Servers is the number of time servers averaged per sync (≥1). The
	// effective jitter scales with 1/√Servers.
	Servers int
}

// Daemon periodically disciplines a Clock per an NTPConfig.
type Daemon struct {
	clock *Clock
	cfg   NTPConfig
	syncs int // corrections applied
	stop  bool
}

// SyncOnce performs a single NTP correction on clock immediately.
func SyncOnce(env *sim.Env, clock *Clock, cfg NTPConfig) {
	d := &Daemon{clock: clock, cfg: cfg}
	d.correct(env)
}

// StartDaemon launches an NTP daemon process that first syncs immediately
// and then re-syncs every cfg.Interval. A non-positive interval yields a
// sync-once daemon.
func StartDaemon(env *sim.Env, name string, clock *Clock, cfg NTPConfig) *Daemon {
	d := &Daemon{clock: clock, cfg: cfg}
	env.Go(name, func(p *sim.Proc) {
		// Stop() may run before the daemon process is first scheduled; the
		// initial sync must not fire on a stopped daemon.
		if d.stop {
			return
		}
		d.correct(env)
		if cfg.Interval <= 0 {
			return
		}
		for !d.stop {
			p.Sleep(cfg.Interval)
			if d.stop {
				return
			}
			d.correct(env)
		}
	})
	return d
}

// Stop halts the daemon after its current sleep.
func (d *Daemon) Stop() { d.stop = true }

func (d *Daemon) correct(env *sim.Env) {
	servers := d.cfg.Servers
	if servers < 1 {
		servers = 1
	}
	var jitter time.Duration
	if d.cfg.JitterSigma > 0 {
		sigma := float64(d.cfg.JitterSigma) / math.Sqrt(float64(servers))
		jitter = time.Duration(env.Rand().NormFloat64() * sigma)
	}
	d.clock.SetOffset(d.cfg.Bias + jitter)
	d.syncs++
}
