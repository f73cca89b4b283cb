package engine

import (
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestAgreementRule pins the one rule every differential oracle asks.
func TestAgreementRule(t *testing.T) {
	const (
		plain = `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
		deep  = `SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE QUAN >= ALL (SELECT QOH FROM PARTS))`
		or    = `SELECT PNUM FROM PARTS WHERE QOH = 0 OR QOH > ALL (SELECT QUAN FROM SUPPLY)`
		not   = `SELECT PNUM FROM PARTS WHERE NOT (QOH < ALL (SELECT QUAN FROM SUPPLY))`
		// The ALL sits in the left one of two subqueries of a comparison.
		left = `SELECT PNUM FROM PARTS WHERE (SELECT COUNT(QUAN) FROM SUPPLY WHERE QUAN > ALL (SELECT QOH FROM PARTS)) = (SELECT COUNT(QOH) FROM PARTS)`
	)
	for _, c := range []struct {
		name, sql string
		s         Strategy
		want      storage.Agreement
	}{
		{"plain JA2", plain, TransformJA2, storage.AgreeSet},
		{"Kim", plain, TransformKim, storage.AgreeNone},
		{"NI against itself", plain, NestedIteration, storage.AgreeBag},
		{"ALL at depth 2", deep, TransformJA2, storage.AgreeNone},
		{"ALL under OR", or, TransformJA2, storage.AgreeNone},
		{"ALL under NOT", not, TransformJA2, storage.AgreeNone},
		{"ALL in a comparison's left subquery", left, TransformJA2, storage.AgreeNone},
		{"ALL under NI", deep, NestedIteration, storage.AgreeBag},
	} {
		if got := AgreementWithNI(sqlparser.MustParse(c.sql), c.s); got != c.want {
			t.Errorf("%s: AgreementWithNI = %v, want %v", c.name, got, c.want)
		}
	}
}

// wrongParallelDiff is what every differential check must say when a parallel plan
// re-introduces the COUNT bug on Kiessling's Q2 — drops part 8, the
// NULL-padded outer row whose COUNT is 0. internal/metamorph's
// TestParityReportsThroughSharedComparator expects the same text: the
// proof that the reporters share one comparator.
const wrongParallelDiff = "1 vs 2 rows; first unmatched: (8)"

// TestVerifyParallelReportsThroughSharedComparator seeds that wrong
// parallel result — Kim's NEST-JA computes exactly it — and holds it up
// to the comparison the parallel differential tests write out.
func TestVerifyParallelReportsThroughSharedComparator(t *testing.T) {
	db := New(8)
	if err := workload.LoadKiessling(&workload.DB{Cat: db.Catalog(), Store: db.Store()}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: TransformJA2}
	opts.Planner.Parallelism, opts.Planner.ForceParallel = 2, true
	right, err := db.Query(workload.KiesslingQ2, opts)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := db.Query(workload.KiesslingQ2, Options{Strategy: TransformKim})
	if err != nil {
		t.Fatal(err)
	}
	if d := storage.Diff(AcrossRegimes, wrong.Rows, right.Rows); d != wrongParallelDiff {
		t.Errorf("differential-test comparison says %q, want %q", d, wrongParallelDiff)
	}
}
