// Package obs is the simulator's observability layer: per-query tracing on
// the virtual timeline, and the metrics snapshot — Flatten and
// FlattenHistogram, which read the components' own Stats structs and
// histograms when a snapshot is taken.
//
// Tracing follows one statement's causal chain across every component it
// touches — client handle, pool checkout, proxy routing attempts, server
// execution, binlog group commit and ship batches, slave appliers — and
// links them into a single trace even across process boundaries (the write
// runs on a client process; shipping and applying run on replication
// threads). Cross-process links ride the binlog position — which master's log,
// and the sequence number in it: the server registers each committed entry
// against the write's span, and the dump and SQL threads look the position up
// to join the trace.
//
// Everything is deterministic: span IDs come from a splitmix64 generator
// seeded from the environment's seed, and timestamps are virtual time — so
// the same seed produces a byte-identical trace file. The tracer draws
// nothing from the environment's RNG, so a traced run is the untraced run.
//
// All tracer and span methods are nil-safe: a nil *Tracer (tracing off)
// produces nil spans, and every method on a nil span is a no-op, so
// instrumented code needs no "is tracing on" branches.
package obs

import (
	"strconv"
	"time"

	"cloudrepl/internal/sim"
)

// Stages is the canonical order of pipeline stages a fully-traced write
// crosses, from the client's call to the last slave apply. Stage names are
// the Chrome trace "cat" field and the summary tool's grouping key.
var Stages = []string{"client", "pool", "proxy", "server", "binlog", "apply"}

// Ref names a span inside its trace; the zero Ref means "no span" and
// starting a linked span from it opens a fresh trace.
type Ref struct {
	Trace uint64
	Span  uint64
}

// Attr is one span annotation. Attributes are an ordered slice, not a map,
// so export order is deterministic.
type Attr struct {
	Key, Value string
}

// Span is one timed operation. Start it with Tracer.StartSpan (nested under
// the process's innermost open span) or Tracer.StartLinked (parented on an
// explicit Ref across processes), and End it exactly once; a span that is
// never ended counts as an orphan and is excluded from the export.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Stage  string
	Name   string
	Proc   string
	ProcID uint64
	Start  sim.Time
	Dur    time.Duration

	tr    *Tracer
	attrs []Attr
	ended bool
}

// SetAttr annotates the span; nil-safe.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{key, value})
}

// SetAttrInt annotates the span with an integer; nil-safe.
func (sp *Span) SetAttrInt(key string, value int64) {
	if sp == nil {
		return
	}
	sp.SetAttr(key, strconv.FormatInt(value, 10))
}

// Ref returns the span's cross-process link handle (zero Ref for nil).
func (sp *Span) Ref() Ref {
	if sp == nil {
		return Ref{}
	}
	return Ref{Trace: sp.Trace, Span: sp.ID}
}

// End closes the span at the current virtual time and pops it from its
// process's open-span stack; nil-safe, and a second End is a no-op.
func (sp *Span) End(p *sim.Proc) {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	sp.Dur = time.Duration(p.Now() - sp.Start)
	sp.tr.pop(sp)
}

// Tracer records spans on one simulation environment. The simulation is
// cooperatively single-threaded, so the tracer keeps a per-process stack of
// open spans: StartSpan nests under the calling process's innermost open
// span with no context argument threaded through call signatures.
type Tracer struct {
	env    *sim.Env
	idgen  uint64 // splitmix64 state, seeded from the env's seed
	spans  []*Span
	stacks map[uint64][]*Span // proc ID → open spans, innermost last
	seqRef map[seqKey]Ref     // binlog position → committing write's span
}

// seqKey names one binlog entry among everything a tracer sees. The sequence
// alone does not: every master numbers its own log from 1, and the cells of a
// sharded tier share one tracer.
type seqKey struct {
	origin any // the log the entry was committed to (a *binlog.Log)
	seq    uint64
}

// idSeed is mixed into every tracer's span-ID stream with the env's seed.
const idSeed = 0x243f6a8885a308d3

// NewTracer creates a tracer on env whose span IDs follow from env's seed,
// the constant the env was made with: it never touches env's RNG, at
// construction or after, so tracing cannot perturb the simulation's random
// stream — a traced run draws exactly what the untraced run draws.
func NewTracer(env *sim.Env) *Tracer {
	return &Tracer{
		env:    env,
		idgen:  idSeed ^ uint64(env.Seed()),
		stacks: make(map[uint64][]*Span),
		seqRef: make(map[seqKey]Ref),
	}
}

// nextID steps the splitmix64 generator. IDs are unique with overwhelming
// probability and, for one seed, identical run to run.
func (tr *Tracer) nextID() uint64 {
	tr.idgen += 0x9e3779b97f4a7c15
	z := tr.idgen
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// StartSpan opens a span on p's stack: a child of the process's innermost
// open span, or the root of a new trace when the stack is empty. Returns
// nil (safe to use) when the tracer is nil.
func (tr *Tracer) StartSpan(p *sim.Proc, stage, name string) *Span {
	if tr == nil {
		return nil
	}
	var parent, trace uint64
	if stack := tr.stacks[p.ID()]; len(stack) > 0 {
		top := stack[len(stack)-1]
		parent, trace = top.ID, top.Trace
	}
	return tr.start(p, stage, name, trace, parent)
}

// StartLinked opens a span parented on an explicit cross-process Ref — the
// dump thread links a ship batch to the write that produced its first
// entry, the applier links each apply to the originating write. A zero Ref
// starts a fresh trace (e.g. entries committed before tracing began).
func (tr *Tracer) StartLinked(p *sim.Proc, stage, name string, parent Ref) *Span {
	if tr == nil {
		return nil
	}
	return tr.start(p, stage, name, parent.Trace, parent.Span)
}

func (tr *Tracer) start(p *sim.Proc, stage, name string, trace, parent uint64) *Span {
	if trace == 0 {
		trace = tr.nextID()
	}
	sp := &Span{
		Trace:  trace,
		ID:     tr.nextID(),
		Parent: parent,
		Stage:  stage,
		Name:   name,
		Proc:   p.Name(),
		ProcID: p.ID(),
		Start:  p.Now(),
		tr:     tr,
	}
	tr.spans = append(tr.spans, sp)
	tr.stacks[p.ID()] = append(tr.stacks[p.ID()], sp)
	return sp
}

// pop removes an ended span from its process's stack. Spans normally end
// innermost-first; an out-of-order End removes the span from wherever it
// sits so the stack cannot wedge.
func (tr *Tracer) pop(sp *Span) {
	stack := tr.stacks[sp.ProcID]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == sp {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(tr.stacks, sp.ProcID)
	} else {
		tr.stacks[sp.ProcID] = stack
	}
}

// LinkSeq registers sp as the span that committed sequence seq of the binlog
// origin (the committing master's log; any comparable value that identifies
// it); the replication threads recover it with SeqRef. Nil-safe on tr and sp.
func (tr *Tracer) LinkSeq(origin any, seq uint64, sp *Span) {
	if tr == nil || sp == nil {
		return
	}
	tr.seqRef[seqKey{origin, seq}] = sp.Ref()
}

// SeqRef returns the span that committed sequence seq of the binlog origin
// (zero Ref when unknown, e.g. preload writes). Nil-safe.
func (tr *Tracer) SeqRef(origin any, seq uint64) Ref {
	if tr == nil {
		return Ref{}
	}
	return tr.seqRef[seqKey{origin, seq}]
}

// Spans returns every recorded span in creation order (ended or not).
func (tr *Tracer) Spans() []*Span {
	if tr == nil {
		return nil
	}
	return tr.spans
}

// Orphans counts spans that were started but never ended — dropped End
// handles or operations cut off by the end of the run. Orphans are excluded
// from the export.
func (tr *Tracer) Orphans() int {
	if tr == nil {
		return 0
	}
	n := 0
	for _, sp := range tr.spans {
		if !sp.ended {
			n++
		}
	}
	return n
}
