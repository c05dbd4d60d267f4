// Package cloud models a public IaaS provider in the style of Amazon EC2
// circa 2011: regions containing availability zones, instance types with
// nominal compute ratings, launched instances whose actual CPU speed varies
// (Schad et al. measured a coefficient of variation around 21% for small
// instances), a wide-area network with per-placement-pair latencies, and
// per-instance clocks that drift unless disciplined by NTP.
//
// Everything runs on the virtual timeline of an internal/sim environment,
// so experiments that take 35 wall-clock minutes on EC2 complete in seconds.
package cloud

import (
	"fmt"
	"time"

	"cloudrepl/internal/sim"
	"cloudrepl/internal/vclock"
)

// Region identifies a geographic region, e.g. "us-west-1".
type Region string

// Canonical regions used throughout the paper's experiments.
const (
	USWest1      Region = "us-west-1"
	USEast1      Region = "us-east-1"
	EUWest1      Region = "eu-west-1"
	APSoutheast1 Region = "ap-southeast-1"
	APNortheast1 Region = "ap-northeast-1"
)

// Placement locates an instance: a region plus an availability-zone letter.
type Placement struct {
	Region Region
	Zone   string // "a", "b", ...
}

// String renders the placement like "us-west-1a".
func (p Placement) String() string { return string(p.Region) + p.Zone }

// InstanceType is a nominal hardware class.
type InstanceType struct {
	Name  string
	VCPUs int
	// ECUPerCore is the nominal compute rating of each virtual core
	// relative to the reference small-instance core.
	ECUPerCore float64
	MemMB      int
}

// The two instance types the paper deploys: databases on m1.small (so
// saturation appears early) and the benchmark driver on m1.large.
var (
	Small = InstanceType{Name: "m1.small", VCPUs: 1, ECUPerCore: 1.0, MemMB: 1700}
	Large = InstanceType{Name: "m1.large", VCPUs: 2, ECUPerCore: 2.0, MemMB: 7680}
)

// CPUModel is a physical processor that may back an instance. The paper
// observed identical instance types backed by different CPUs (an Intel Xeon
// E5430 2.66GHz vs an E5507 2.27GHz) with visibly different throughput.
type CPUModel struct {
	Name   string
	Factor float64 // speed relative to the reference core
}

// Known physical CPU models with speeds relative to the E5430.
var (
	XeonE5430 = CPUModel{Name: "Intel Xeon E5430 2.66GHz", Factor: 1.0}
	XeonE5507 = CPUModel{Name: "Intel Xeon E5507 2.27GHz", Factor: 0.853}
)

// Config tunes the provider model.
type Config struct {
	// CPUCoV is the coefficient of variation applied to each launched
	// instance's CPU speed (0 disables heterogeneity). Ignored when
	// CPUModels is non-empty.
	CPUCoV float64
	// CPUModels, when non-empty, is sampled uniformly per launch and the
	// chosen model's Factor becomes the instance's speed factor. This
	// reproduces the paper's E5430-vs-E5507 anecdote exactly.
	CPUModels []CPUModel
	// ClockDriftPPMSigma is the σ of each instance's clock drift rate.
	ClockDriftPPMSigma float64
	// ClockOffsetSigma is the σ of each instance's initial clock offset.
	ClockOffsetSigma time.Duration
}

// DefaultConfig mirrors the measured EC2 environment of the paper.
func DefaultConfig() Config {
	return Config{
		CPUCoV:             0.21,
		ClockDriftPPMSigma: 18,
		ClockOffsetSigma:   5 * time.Millisecond,
	}
}

// Cloud is a provider account: it launches instances and owns the network.
type Cloud struct {
	env       *sim.Env
	cfg       Config
	net       *Network
	instances []*Instance
	nextID    int
}

// New creates a provider bound to env.
func New(env *sim.Env, cfg Config) *Cloud {
	return &Cloud{env: env, cfg: cfg, net: NewNetwork(env, DefaultLatencies())}
}

// Network returns the provider network.
func (c *Cloud) Network() *Network { return c.net }

// Instances returns all launched instances, including terminated ones.
func (c *Cloud) Instances() []*Instance { return c.instances }

// Instance is a launched virtual machine.
type Instance struct {
	ID    string
	Name  string
	Type  InstanceType
	Place Placement
	// CPU is the FIFO compute resource; capacity equals the vCPU count.
	CPU *sim.Resource
	// SpeedFactor scales nominal CPU time: service = nominal/(ECUPerCore ×
	// SpeedFactor). It captures which physical machine backs the VM.
	SpeedFactor float64
	// CPUModel is the backing processor when Config.CPUModels is used.
	CPUModel CPUModel
	// Clock is the instance's local wall clock.
	Clock *vclock.Clock

	cloud *Cloud
	up    bool
	upSig *sim.Signal // broadcast on Restart

	// Billing clock: the provider charges for wall time the instance is
	// up, the cost side of every elasticity decision.
	upSince sim.Time
	upAccum time.Duration
}

// Launch starts an instance of type t at placement pl. CPU speed, clock
// offset and drift are sampled from the provider config.
func (c *Cloud) Launch(name string, t InstanceType, pl Placement) *Instance {
	c.nextID++
	rng := c.env.Rand()
	inst := &Instance{
		ID:          fmt.Sprintf("i-%07x", c.nextID),
		Name:        name,
		Type:        t,
		Place:       pl,
		CPU:         sim.NewResource(c.env, name+"/cpu", t.VCPUs),
		SpeedFactor: 1,
		cloud:       c,
		up:          true,
		upSig:       sim.NewSignal(c.env).Named(name + "/up"),
		upSince:     c.env.Now(),
	}
	if len(c.cfg.CPUModels) > 0 {
		inst.CPUModel = c.cfg.CPUModels[rng.Intn(len(c.cfg.CPUModels))]
		inst.SpeedFactor = inst.CPUModel.Factor
	} else if c.cfg.CPUCoV > 0 {
		inst.SpeedFactor = sim.TruncNormFactor(rng, c.cfg.CPUCoV)
	}
	inst.Clock = vclock.New(c.env, vclock.Config{
		InitialOffset: time.Duration(rng.NormFloat64() * float64(c.cfg.ClockOffsetSigma)),
		DriftPPM:      rng.NormFloat64() * c.cfg.ClockDriftPPMSigma,
	})
	c.instances = append(c.instances, inst)
	return inst
}

// Up reports whether the instance is running.
func (i *Instance) Up() bool { return i.up }

// Terminate stops the instance. Work on a terminated instance panics, so
// components must consult Up before charging CPU; in-flight messages to it
// are dropped by their owners' queues.
func (i *Instance) Terminate() {
	if i.up {
		i.upAccum += i.cloud.env.Now() - i.upSince
	}
	i.up = false
}

// Restart brings a terminated instance back up (state is retained; the
// database layer decides what survives) and wakes AwaitUp waiters.
func (i *Instance) Restart() {
	if !i.up {
		i.upSince = i.cloud.env.Now()
	}
	i.up = true
	if i.upSig != nil {
		i.upSig.Broadcast()
	}
}

// UpTime returns the total virtual time this instance has been running —
// the provider's billing clock. Elasticity experiments report fleet cost as
// the sum of UpTime over every launched instance (VM-minutes).
func (i *Instance) UpTime() time.Duration {
	d := i.upAccum
	if i.up {
		d += i.cloud.env.Now() - i.upSince
	}
	return d
}

// AwaitUp blocks the calling process until the instance is running —
// how crash-tolerant components (replication threads) park across an
// instance crash instead of panicking or dropping work.
func (i *Instance) AwaitUp(p *sim.Proc) {
	for !i.up {
		i.upSig.Wait(p)
	}
}

// EffectiveSpeed returns the instance's per-core speed relative to the
// reference small core: ECUPerCore × SpeedFactor.
func (i *Instance) EffectiveSpeed() float64 { return i.Type.ECUPerCore * i.SpeedFactor }

// Work charges nominal CPU time to the instance, queueing FIFO behind other
// work on its cores. Nominal time is defined on the reference core and is
// scaled by the instance's effective speed.
func (i *Instance) Work(p *sim.Proc, nominal time.Duration) {
	i.work(p, nominal, false)
}

// WorkHigh is Work at high scheduling priority (jumps the CPU queue) —
// used for threads the operator has niced up, like a prioritized
// replication applier.
func (i *Instance) WorkHigh(p *sim.Proc, nominal time.Duration) {
	i.work(p, nominal, true)
}

func (i *Instance) work(p *sim.Proc, nominal time.Duration, high bool) {
	if !i.up {
		panic(fmt.Sprintf("cloud: Work on terminated instance %s", i.Name))
	}
	if nominal <= 0 {
		return
	}
	scaled := time.Duration(float64(nominal) / i.EffectiveSpeed())
	if high {
		i.CPU.UseHigh(p, scaled)
	} else {
		i.CPU.Use(p, scaled)
	}
}

// Utilization returns the instance's time-averaged CPU utilization since the
// last stats reset.
func (i *Instance) Utilization() float64 { return i.CPU.Utilization() }

// MeasureSpeed benchmarks an instance the way the paper's §IV-A advice
// suggests ("validate instance performance before deploying applications
// into the cloud"): it runs probes of known nominal CPU work on the
// instance and reports the measured effective speed (nominal/elapsed).
// Results are only meaningful on an otherwise idle instance.
func MeasureSpeed(p *sim.Proc, inst *Instance, probes int) float64 {
	if probes < 1 {
		probes = 1
	}
	const nominal = 50 * time.Millisecond
	start := p.Now()
	for i := 0; i < probes; i++ {
		inst.Work(p, nominal)
	}
	elapsed := p.Now() - start
	if elapsed <= 0 {
		return 0
	}
	return float64(probes) * float64(nominal) / float64(elapsed)
}
