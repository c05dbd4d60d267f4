// Fixture for the mvccalias analyzer, seen from outside the engine: unexported
// storage is out of reach, so what is left to police is the exported fields
// of store types and the live image Row.Values hands out.
package mvccalias

import "cloudrepl/internal/analysis/testdata/src/mvccalias/internal/sqlengine"

func mutateValues(r *sqlengine.Row) {
	r.Values()[1] = sqlengine.Value{} // want `write to the result of Values outside store\.go`
}

func mutateCatalog(ix *sqlengine.Index) {
	ix.Cols[0] = 3         // want `write to row storage field Cols`
	ix.Cols = nil          // want `write to row storage field Cols`
	_ = append(ix.Cols, 4) // want `append to row storage field Cols`
}

func readsAndCopiesAreFine(r *sqlengine.Row, ix *sqlengine.Index) int {
	vals := append([]sqlengine.Value(nil), r.Values()...)
	vals[0] = sqlengine.Value{}
	return len(vals) + len(ix.Cols) + len(ix.Name)
}
