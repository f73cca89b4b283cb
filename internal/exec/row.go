// Package exec implements query execution: the nested-iteration evaluator
// that System R used for nested queries (the paper's baseline and the
// semantic ground truth), and the physical operators — sequential scan,
// selection, projection, external (B−1)-way merge sort, sort-merge join
// with the outer variant of section 5.2, nested-loop join, grouped
// aggregation, duplicate elimination, and materialization — that execute
// transformed (canonical) queries.
//
// All table access goes through the storage layer's page accounting, so
// executing the same query under nested iteration and under a transformed
// plan yields directly comparable page-I/O measurements, the paper's
// performance metric.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// ColID names one column of a row flowing between operators: the table
// binding it came from and the column name. Derived columns (aggregate
// results) have an empty Table.
type ColID struct {
	Table  string
	Column string
}

func (c ColID) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// RowSchema maps positions of a tuple to column identities.
type RowSchema []ColID

// Index finds the position of the reference, matching case-insensitively.
// Unqualified references match on column name alone if unambiguous.
// It returns -1 when absent and -2 when ambiguous.
func (s RowSchema) Index(ref ast.ColumnRef) int {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Column, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Concat appends another schema (used by joins).
func (s RowSchema) Concat(o RowSchema) RowSchema {
	out := make(RowSchema, 0, len(s)+len(o))
	out = append(out, s...)
	return append(out, o...)
}

// errUnknownColumn builds the standard lookup failure. Resolution should
// prevent this; hitting it indicates a planner bug, so the message names
// the reference.
func errUnknownColumn(ref ast.ColumnRef) error {
	return fmt.Errorf("exec: no binding for column %s", ref)
}
