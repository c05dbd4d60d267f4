package cloud

import (
	"sort"
	"time"

	"cloudrepl/internal/sim"
)

// Latencies is the base one-way (half-RTT) latency model between
// placements. Lookups fall through: exact zone pair, region pair (either
// order), then class defaults.
type Latencies struct {
	// SameInstance is the loopback latency (client co-located with server).
	SameInstance time.Duration
	// SameZone is the one-way latency between two instances in one
	// availability zone.
	SameZone time.Duration
	// SameRegion is the one-way latency between zones of one region.
	SameRegion time.Duration
	// CrossRegion is the default one-way latency between regions without an
	// explicit pair entry.
	CrossRegion time.Duration
	// RegionPairs overrides CrossRegion for specific region pairs
	// (unordered).
	RegionPairs map[[2]Region]time.Duration
	// JitterSigma is the σ of the log-normal multiplicative jitter applied
	// to each sampled latency (0 disables jitter).
	JitterSigma float64
}

// DefaultLatencies reproduces the paper's measured one-way latencies
// (§IV-B.2): 16 ms within an availability zone, 21 ms across zones of one
// region, and 173 ms between us-west-1 and eu-west-1 (their different-region
// configuration), with plausible values for the remaining pairs so that the
// four different-region choices average near the reported 173 ms.
func DefaultLatencies() Latencies {
	return Latencies{
		SameInstance: 200 * time.Microsecond,
		SameZone:     16 * time.Millisecond,
		SameRegion:   21 * time.Millisecond,
		CrossRegion:  173 * time.Millisecond,
		RegionPairs: map[[2]Region]time.Duration{
			{USWest1, EUWest1}:      173 * time.Millisecond,
			{USWest1, USEast1}:      80 * time.Millisecond,
			{USWest1, APSoutheast1}: 205 * time.Millisecond,
			{USWest1, APNortheast1}: 145 * time.Millisecond,
			{USEast1, EUWest1}:      92 * time.Millisecond,
		},
		JitterSigma: 0.08,
	}
}

// Base returns the deterministic one-way latency between two placements.
func (l Latencies) Base(a, b Placement) time.Duration {
	switch {
	case a == b:
		return l.SameZone
	case a.Region == b.Region:
		return l.SameRegion
	default:
		if d, ok := l.RegionPairs[[2]Region{a.Region, b.Region}]; ok {
			return d
		}
		if d, ok := l.RegionPairs[[2]Region{b.Region, a.Region}]; ok {
			return d
		}
		return l.CrossRegion
	}
}

// PathFault is transient fault state injected on one unordered placement
// pair: a full partition (no packet crosses until healed) and/or a latency
// spike (extra one-way latency plus extra log-normal jitter).
type PathFault struct {
	Partitioned bool
	// ExtraLatency is added to every sampled one-way latency on the path.
	ExtraLatency time.Duration
	// ExtraJitterSigma is added to the model's JitterSigma on the path.
	ExtraJitterSigma float64
}

func (f PathFault) clear() bool {
	return !f.Partitioned && f.ExtraLatency == 0 && f.ExtraJitterSigma == 0
}

// pathKey is an unordered placement pair.
func pathKey(a, b Placement) [2]Placement {
	if b.Region < a.Region || (b.Region == a.Region && b.Zone < a.Zone) {
		a, b = b, a
	}
	return [2]Placement{a, b}
}

// Network samples message latencies on the virtual timeline and carries
// injectable per-path fault state (partitions, latency spikes).
type Network struct {
	env    *sim.Env
	lat    Latencies
	faults map[[2]Placement]PathFault
}

// NewNetwork creates a network bound to env with the given latency model.
func NewNetwork(env *sim.Env, lat Latencies) *Network {
	return &Network{env: env, lat: lat, faults: make(map[[2]Placement]PathFault)}
}

// Fault returns the current fault state on the a↔b path.
func (n *Network) Fault(a, b Placement) PathFault { return n.faults[pathKey(a, b)] }

func (n *Network) setFault(a, b Placement, mutate func(*PathFault)) {
	k := pathKey(a, b)
	f := n.faults[k]
	mutate(&f)
	if f.clear() {
		delete(n.faults, k)
		return
	}
	n.faults[k] = f
}

// Partition cuts the a↔b path in both directions until Heal.
func (n *Network) Partition(a, b Placement) {
	n.setFault(a, b, func(f *PathFault) { f.Partitioned = true })
}

// Heal restores connectivity on the a↔b path (latency spikes persist).
func (n *Network) Heal(a, b Placement) {
	n.setFault(a, b, func(f *PathFault) { f.Partitioned = false })
}

// Reachable reports whether packets currently cross the a↔b path.
func (n *Network) Reachable(a, b Placement) bool { return !n.Fault(a, b).Partitioned }

// SpikeLatency injects extra one-way latency and extra jitter on the a↔b
// path until ClearSpike — a congested or flapping link.
func (n *Network) SpikeLatency(a, b Placement, extra time.Duration, extraJitterSigma float64) {
	n.setFault(a, b, func(f *PathFault) {
		f.ExtraLatency = extra
		f.ExtraJitterSigma = extraJitterSigma
	})
}

// ClearSpike removes an injected latency spike from the a↔b path.
func (n *Network) ClearSpike(a, b Placement) {
	n.setFault(a, b, func(f *PathFault) {
		f.ExtraLatency = 0
		f.ExtraJitterSigma = 0
	})
}

// OneWay samples a one-way latency between two placements, including any
// injected latency spike on the path.
func (n *Network) OneWay(a, b Placement) time.Duration {
	base := n.lat.Base(a, b)
	sigma := n.lat.JitterSigma
	if f, ok := n.faults[pathKey(a, b)]; ok {
		base += f.ExtraLatency
		sigma += f.ExtraJitterSigma
	}
	if sigma <= 0 {
		return base
	}
	return sim.LogNormal(n.env.Rand(), base, sigma)
}

// Transit suspends the calling process for one sampled one-way latency —
// the client side of a synchronous request or response leg. It ignores
// partitions; callers that need partition awareness use TransitTimeout.
func (n *Network) Transit(p *sim.Proc, a, b Placement) {
	p.Sleep(n.OneWay(a, b))
}

// DefaultTransitTimeout bounds a synchronous leg over a partitioned path
// when the caller supplies no explicit timeout.
const DefaultTransitTimeout = 10 * time.Second

// TransitTimeout is Transit for callers that must not hang on a partitioned
// path: when a→b is reachable it sleeps one sampled latency and reports
// true; when partitioned it sleeps the timeout (DefaultTransitTimeout when
// zero) and reports false — the client waiting out a dead TCP connection.
func (n *Network) TransitTimeout(p *sim.Proc, a, b Placement, timeout time.Duration) bool {
	if n.Reachable(a, b) {
		p.Sleep(n.OneWay(a, b))
		return true
	}
	if timeout <= 0 {
		timeout = DefaultTransitTimeout
	}
	p.Sleep(timeout)
	return false
}

// queuedPut is Send's in-flight message: the payload and the arrival-side
// partition check in one allocation, handed to the kernel as a Deliverable
// so no delivery closure is built per message.
type queuedPut[T any] struct {
	n    *Network
	a, b Placement
	q    *sim.Queue[T]
	v    T
}

func (m *queuedPut[T]) Deliver() {
	if m.n.Reachable(m.a, m.b) {
		m.q.Put(m.v)
	}
}

// Send delivers v into q after a sampled one-way latency without blocking
// the caller — the asynchronous replication stream. Delivery order between
// two sends on the same pair may invert only if jitter reorders them;
// ordered protocols (like the binlog stream) serialize on the receiving
// queue position instead, so callers needing FIFO should use SendOrdered.
// Sends on a partitioned path are dropped (at dispatch or at arrival).
func Send[T any](n *Network, a, b Placement, q *sim.Queue[T], v T) {
	if !n.Reachable(a, b) {
		return
	}
	n.env.ScheduleDeliver(n.OneWay(a, b), &queuedPut[T]{n: n, a: a, b: b, q: q, v: v})
}

// unicastMsg is Unicast's in-flight message; see queuedPut.
type unicastMsg struct {
	n       *Network
	a, b    Placement
	deliver func()
}

func (m *unicastMsg) Deliver() {
	if m.n.Reachable(m.a, m.b) {
		m.deliver()
	}
}

// Unicast runs deliver after a sampled one-way latency, dropping the
// message if the a→b path is partitioned when it is sent or when it would
// arrive — datagram semantics for acknowledgements and probes.
func Unicast(n *Network, a, b Placement, deliver func()) {
	if !n.Reachable(a, b) {
		return
	}
	n.env.ScheduleDeliver(n.OneWay(a, b), &unicastMsg{n: n, a: a, b: b, deliver: deliver})
}

// PipeRetryInterval is how often a Pipe re-probes a partitioned path for
// its blocked head-of-line message (TCP retransmission cadence).
const PipeRetryInterval = 500 * time.Millisecond

// Pipe is a FIFO network channel between two placements: messages arrive
// exactly in send order, each delayed by at least the sampled latency
// (TCP-like ordering). When the path is partitioned the stream blocks —
// messages queue inside the pipe and drain in order once the partition
// heals, like TCP retransmitting an unacknowledged segment.
type Pipe[T any] struct {
	net      *Network
	from, to Placement
	q        *sim.Queue[T]
	lastAt   sim.Time

	pending sim.Ring[pipeMsg[T]] // in-flight messages, FIFO
	pumping bool
	pumpFn  func() // pump as a func value, built once — not per reschedule
}

type pipeMsg[T any] struct {
	v  T
	at sim.Time // earliest arrival (send time + sampled latency)
}

// NewPipe creates an ordered channel delivering into q.
func NewPipe[T any](n *Network, from, to Placement, q *sim.Queue[T]) *Pipe[T] {
	pp := &Pipe[T]{net: n, from: from, to: to, q: q}
	pp.pumpFn = pp.pump
	return pp
}

// Send enqueues v for ordered delivery.
func (pp *Pipe[T]) Send(v T) {
	at := pp.net.env.Now() + pp.net.OneWay(pp.from, pp.to)
	if at < pp.lastAt {
		at = pp.lastAt // preserve FIFO despite jitter
	}
	pp.lastAt = at
	pp.pending.Push(pipeMsg[T]{v: v, at: at})
	if !pp.pumping {
		pp.pumping = true
		pp.net.env.After(at-pp.net.env.Now(), pp.pumpFn)
	}
}

// pump delivers the head-of-line message once its arrival time has passed
// and the path is reachable, then reschedules itself for the next one.
func (pp *Pipe[T]) pump() {
	now := pp.net.env.Now()
	head, ok := pp.pending.Peek()
	if !ok {
		pp.pumping = false
		return
	}
	if now < head.at {
		pp.net.env.After(head.at-now, pp.pumpFn)
		return
	}
	if !pp.net.Reachable(pp.from, pp.to) {
		pp.net.env.After(PipeRetryInterval, pp.pumpFn)
		return
	}
	pp.q.Put(head.v)
	pp.pending.Pop()
	head, ok = pp.pending.Peek()
	if !ok {
		pp.pumping = false
		return
	}
	next := head.at
	if next < now {
		next = now
	}
	pp.net.env.After(next-now, pp.pumpFn)
}

// InFlight returns the number of sent-but-undelivered messages.
func (pp *Pipe[T]) InFlight() int { return pp.pending.Len() }

// PingStats summarizes a ping run.
type PingStats struct {
	Samples []time.Duration
	Mean    time.Duration
	Median  time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Ping measures full round-trip times between two placements, one probe per
// interval, for the given count, like running `ping` for 20 minutes as the
// paper did. It must be called from a simulation process.
func Ping(p *sim.Proc, n *Network, a, b Placement, count int, interval time.Duration) PingStats {
	st := PingStats{Min: time.Duration(1<<63 - 1)}
	for i := 0; i < count; i++ {
		rtt := n.OneWay(a, b) + n.OneWay(b, a)
		st.Samples = append(st.Samples, rtt)
		if rtt < st.Min {
			st.Min = rtt
		}
		if rtt > st.Max {
			st.Max = rtt
		}
		p.Sleep(interval)
	}
	var sum time.Duration
	sorted := append([]time.Duration(nil), st.Samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		sum += d
	}
	if len(sorted) > 0 {
		st.Mean = sum / time.Duration(len(sorted))
		st.Median = sorted[len(sorted)/2]
	}
	return st
}
