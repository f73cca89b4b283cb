package storage

import (
	"fmt"
	"slices"
)

// The row comparator of every differential oracle in the repository: the
// engine's VerifyParallel, the metamorphic runner and the package tests
// compare results through it, so a disagreement reads the same wherever it
// is caught. Which Agreement two results owe each other is the engine's
// rule (engine.AgreementWithNI); what it means for two row slices is
// decided here and nowhere else.

// Agreement is how two results of one query must compare.
type Agreement uint8

const (
	AgreeNone Agreement = iota // not comparable
	AgreeSet                   // equal once duplicates are removed
	AgreeBag                   // equal row for row, up to order
)

// String names the agreement the way traces and failure messages do.
func (a Agreement) String() string {
	return [...]string{"incomparable", "set-equal", "bag-equal"}[a]
}

// Canon is the comparison form of a result: every row printed, sorted,
// and under AgreeSet deduplicated (nil under AgreeNone).
func Canon(how Agreement, rows []Tuple) []string {
	if how == AgreeNone {
		return nil
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	if how == AgreeSet {
		out = slices.Compact(out)
	}
	return out
}

// DiffCanon compares two Canon forms: "" when equal, else the row counts
// and the first row the two do not share.
func DiffCanon(a, b []string) string {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return fmt.Sprintf("%d vs %d rows; first difference: %s vs %s", len(a), len(b), a[i], b[i])
		}
	}
	if len(a) == len(b) {
		return ""
	}
	longer := a
	if len(b) > len(a) {
		longer = b
	}
	return fmt.Sprintf("%d vs %d rows; first unmatched: %s", len(a), len(b), longer[n])
}

// Diff reports how a and b fail to agree, "" when they do (always under
// AgreeNone).
func Diff(how Agreement, a, b []Tuple) string {
	return DiffCanon(Canon(how, a), Canon(how, b))
}
