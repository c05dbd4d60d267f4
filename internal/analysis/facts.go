package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a typed datum an analyzer attaches to a function or variable so
// that analysis of downstream packages can reuse it without re-inspecting the
// dependency's source — the x/tools object-fact model, scoped to one
// in-memory Program (facts never serialize; the whole module is analyzed in a
// single process).
//
// Each analyzer owns its own fact namespace: two analyzers may export
// different facts on the same object without colliding. Within one analyzer,
// at most one fact of each concrete type may be attached per object; a
// second ExportObjectFact of the same type overwrites the first.
//
// Fact types must be pointers to structs and implement AFact, which exists
// only to make accidental exports of non-fact values a compile error.
type Fact interface{ AFact() }

// factStore holds every fact exported during a Program run, keyed by
// (analyzer, object, concrete fact type).
type factStore map[objFactKey]Fact

type objFactKey struct {
	analyzer string
	obj      types.Object
	t        reflect.Type
}

func factType(f Fact) reflect.Type {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T must be a pointer", f))
	}
	return t
}

// ExportObjectFact attaches fact to obj under the pass's analyzer. obj is
// usually a *types.Func (a summary of the function's behavior) or a
// *types.Var; it must belong to some package of the Program, though this is
// not enforced — facts on foreign objects are simply never imported.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: ExportObjectFact on nil object")
	}
	p.facts[objFactKey{p.Analyzer.Name, obj, factType(fact)}] = fact
}

// ImportObjectFact copies the fact of ptr's concrete type previously
// exported on obj by this pass's analyzer into *ptr, reporting whether one
// was found. Packages are analyzed in dependency order, so facts exported by
// a dependency are always visible here.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	f, ok := p.facts[objFactKey{p.Analyzer.Name, obj, factType(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}
