package vclock

import (
	"math"
	"sort"
	"testing"
	"time"

	"cloudrepl/internal/sim"
)

func TestClockDriftAccumulates(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{InitialOffset: 5 * time.Millisecond, DriftPPM: 100}) // 100 µs/s
	env.RunUntil(env.Now() + 10*time.Second)
	want := 5*time.Millisecond + 1*time.Millisecond // 10s × 100µs/s = 1ms
	if got := c.Offset(); absDur(got-want) > 10*time.Microsecond {
		t.Fatalf("offset after 10s = %v, want ≈%v", got, want)
	}
}

func TestClockNowIncludesOffset(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{InitialOffset: -3 * time.Millisecond})
	env.RunUntil(env.Now() + time.Second)
	want := time.Second - 3*time.Millisecond
	if got := c.Now(); got != want {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestClockNegativeDrift(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{DriftPPM: -50})
	env.RunUntil(env.Now() + 20*time.Second)
	want := -1 * time.Millisecond // 20s × -50µs/s
	if got := c.Offset(); absDur(got-want) > 10*time.Microsecond {
		t.Fatalf("offset = %v, want ≈%v", got, want)
	}
}

func TestSetOffsetRebasesDrift(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{InitialOffset: 40 * time.Millisecond, DriftPPM: 1000})
	env.RunUntil(env.Now() + 5*time.Second)
	c.SetOffset(0)
	if got := c.Offset(); got != 0 {
		t.Fatalf("offset right after SetOffset = %v, want 0", got)
	}
	env.RunUntil(env.Now() + 1*time.Second)
	want := 1 * time.Millisecond // drift resumes from the new base
	if got := c.Offset(); absDur(got-want) > 10*time.Microsecond {
		t.Fatalf("offset 1s after reset = %v, want ≈%v", got, want)
	}
}

func TestNowMicrosResolution(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{})
	env.RunUntil(env.Now() + 1500*time.Nanosecond)
	if got := c.NowMicros(); got != 1 {
		t.Fatalf("NowMicros = %d, want 1 (truncated to µs)", got)
	}
}

func TestDiffBetweenClocks(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, Config{InitialOffset: 7 * time.Millisecond})
	b := New(env, Config{InitialOffset: 2 * time.Millisecond})
	if got := Diff(a, b); got != 5*time.Millisecond {
		t.Fatalf("Diff = %v, want 5ms", got)
	}
}

func TestSyncOnceAppliesBias(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{InitialOffset: 500 * time.Millisecond})
	SyncOnce(env, c, NTPConfig{Bias: 2 * time.Millisecond})
	if got := c.Offset(); got != 2*time.Millisecond {
		t.Fatalf("offset after SyncOnce = %v, want bias 2ms", got)
	}
}

// syncedClock is a clock far off true time and drifting 1 ms a second, for a
// daemon with no jitter: right after a sync its offset is exactly ntpBias.
func syncedClock(env *sim.Env) *Clock {
	return New(env, Config{InitialOffset: time.Second, DriftPPM: 1000})
}

const ntpBias = 2 * time.Millisecond

// TestDaemonPeriodicSync: the daemon syncs at t=0 and every second after,
// and nowhere between — half a second after each sync the clock has drifted
// half a millisecond from the bias.
func TestDaemonPeriodicSync(t *testing.T) {
	env := sim.NewEnv(1)
	c := syncedClock(env)
	d := StartDaemon(env, "ntp", c, NTPConfig{Interval: time.Second, Bias: ntpBias})
	for k := 0; k <= 10; k++ {
		at := time.Duration(k) * time.Second
		env.RunUntil(at)
		if got := c.Offset(); got != ntpBias {
			t.Fatalf("offset at %v = %v, want the bias %v right after a sync", at, got, ntpBias)
		}
		env.RunUntil(at + 500*time.Millisecond)
		if got, want := c.Offset(), ntpBias+500*time.Microsecond; got != want {
			t.Fatalf("offset at %v = %v, want %v: half a second of drift since the last sync", at+500*time.Millisecond, got, want)
		}
	}
	d.Stop()
	env.Run()
	env.Shutdown()
}

// TestDaemonStop: a daemon stopped at 3.5 s makes no sync after its one at
// 3 s, so the clock drifts on from there.
func TestDaemonStop(t *testing.T) {
	env := sim.NewEnv(1)
	c := syncedClock(env)
	d := StartDaemon(env, "ntp", c, NTPConfig{Interval: time.Second, Bias: ntpBias})
	env.RunUntil(3500 * time.Millisecond)
	d.Stop()
	env.Run() // daemon exits at its next wakeup
	if live := env.WaitForGraph(); live != "" {
		t.Fatalf("daemon still alive after Stop:\n%s", live)
	}
	env.RunUntil(10 * time.Second)
	if got, want := c.Offset(), ntpBias+7*time.Millisecond; got != want {
		t.Fatalf("offset at 10s = %v, want %v: drift since the last sync at 3s", got, want)
	}
}

// TestFig4Shapes reproduces the two regimes of the paper's Fig. 4: syncing
// once lets the inter-instance difference ramp from ~7ms to ~50ms over 20
// minutes (median ≈28.23ms, σ ≈12.31), while syncing every second holds it
// in a stable 1–8ms band (median ≈3.30ms, σ ≈1.19).
func TestFig4Shapes(t *testing.T) {
	run := func(everySecond bool) (median, sigma float64, samples []float64) {
		env := sim.NewEnv(99)
		a := New(env, Config{DriftPPM: 17.9})
		b := New(env, Config{DriftPPM: -17.9})
		cfgA := NTPConfig{Bias: 5 * time.Millisecond, JitterSigma: 600 * time.Microsecond, Servers: 4}
		cfgB := NTPConfig{Bias: -2 * time.Millisecond, JitterSigma: 600 * time.Microsecond, Servers: 4}
		if everySecond {
			cfgA.Bias = 1650 * time.Microsecond
			cfgB.Bias = -1650 * time.Microsecond
			cfgA.Interval = time.Second
			cfgB.Interval = time.Second
			StartDaemon(env, "ntpA", a, cfgA)
			StartDaemon(env, "ntpB", b, cfgB)
		} else {
			SyncOnce(env, a, cfgA)
			SyncOnce(env, b, cfgB)
		}
		for i := 0; i < 1200; i++ {
			env.RunUntil(time.Duration(i+1) * time.Second)
			samples = append(samples, float64(Diff(a, b).Microseconds())/1000)
		}
		env.Stop()
		env.Shutdown()
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		median = sorted[len(sorted)/2]
		var sum, sumsq float64
		for _, v := range samples {
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(len(samples))
		sigma = math.Sqrt(sumsq/float64(len(samples)) - mean*mean)
		return median, sigma, samples
	}

	medOnce, sigOnce, once := run(false)
	if medOnce < 20 || medOnce > 40 {
		t.Fatalf("sync-once median = %.2fms, want ≈28ms", medOnce)
	}
	if sigOnce < 8 || sigOnce > 17 {
		t.Fatalf("sync-once σ = %.2fms, want ≈12ms", sigOnce)
	}
	if last := once[len(once)-1]; last < 40 || last > 60 {
		t.Fatalf("sync-once final diff = %.2fms, want ≈50ms", last)
	}

	medSec, sigSec, sec := run(true)
	if medSec < 2 || medSec > 5 {
		t.Fatalf("every-second median = %.2fms, want ≈3.3ms", medSec)
	}
	if sigSec < 0.4 || sigSec > 2.5 {
		t.Fatalf("every-second σ = %.2fms, want ≈1.2ms", sigSec)
	}
	outliers := 0
	for _, v := range sec {
		if v < 0 || v > 9 {
			outliers++
		}
	}
	if frac := float64(outliers) / float64(len(sec)); frac > 0.02 {
		t.Fatalf("%.1f%% of every-second samples outside 0–9ms band", frac*100)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Stop() before the daemon process first runs must suppress even the
// initial sync — a regression test for the stopped-daemon queued-sync bug.
func TestDaemonStopBeforeFirstRun(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{InitialOffset: 500 * time.Millisecond})
	d := StartDaemon(env, "ntp", c, NTPConfig{Interval: time.Second, Bias: 2 * time.Millisecond})
	d.Stop() // before env ever runs the daemon process
	env.RunUntil(5 * time.Second)
	if got := c.Offset(); got != 500*time.Millisecond {
		t.Fatalf("stopped daemon disciplined the clock: offset = %v", got)
	}
	if live := env.WaitForGraph(); live != "" {
		t.Fatalf("daemon still alive after Stop:\n%s", live)
	}
	env.Shutdown()
}

// Servers: 0 must fall back to a single server, not divide by zero in the
// 1/√Servers jitter scaling.
func TestZeroServersJitterScaling(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, Config{})
	SyncOnce(env, c, NTPConfig{Bias: time.Millisecond, JitterSigma: 600 * time.Microsecond, Servers: 0})
	got := c.Offset()
	if got == 0 || absDur(got) > 100*time.Millisecond {
		t.Fatalf("offset with Servers=0 = %v, want finite bias+jitter", got)
	}
	// The daemon path takes the same guard.
	d := StartDaemon(env, "ntp", c, NTPConfig{Interval: time.Second, JitterSigma: time.Millisecond, Servers: 0})
	env.RunUntil(2500 * time.Millisecond)
	d.Stop()
	env.Run()
	if synced := c.Offset(); synced == got || synced < -100*time.Millisecond || synced > 100*time.Millisecond {
		t.Fatalf("offset after the daemon's syncs with Servers=0 = %v, want a finite one other than %v", synced, got)
	}
	env.Shutdown()
}
