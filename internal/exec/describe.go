package exec

import (
	"fmt"
	"strings"
)

// Describe renders a physical operator tree as an indented outline, the
// EXPLAIN view of a compiled plan.
func Describe(op Operator) string {
	var b strings.Builder
	describe(&b, op, "")
	return b.String()
}

func describe(b *strings.Builder, op Operator, indent string) {
	b.WriteString(indent)
	child := indent + "  "
	switch op := op.(type) {
	case *SeqScan:
		fmt.Fprintf(b, "SeqScan(%s, %d pages)\n", op.File.Name(), op.File.NumPages())
	case *IndexScan:
		fmt.Fprintf(b, "IndexScan(%s.%s %s %s)\n", op.Idx.Relation, op.Idx.Column, op.Op, op.Key)
	case *Filter:
		b.WriteString("Filter\n")
		describe(b, op.Child, child)
	case *Project:
		fmt.Fprintf(b, "Project(%s)\n", op.Sch)
		describe(b, op.Child, child)
	case *Distinct:
		b.WriteString("Distinct\n")
		describe(b, op.Child, child)
	case *Sort:
		dirs := ""
		if op.Desc != nil {
			dirs = " desc-mixed"
		}
		fmt.Fprintf(b, "Sort(keys=%v%s)\n", op.Keys, dirs)
		describe(b, op.Child, child)
	case *MergeJoin:
		describeJoin(b, "MergeJoin", op.Outer, newJoinKey(op.LeftKey, op.RightKey, op.NullEq, op.More).String(), op.Out, op.Left, op.Right, child)
	case *ParallelHashJoin:
		// Not under an ExchangeMerge: the join runs inline.
		describeJoin(b, "HashJoin", op.Outer, newJoinKey(op.LeftKey, op.RightKey, op.NullEq, op.More).String(), op.Out, op.Left, op.Right, child)
	case *NestedLoopJoin:
		kind := "NestedLoopJoin"
		if op.Outer {
			kind = "OuterNestedLoopJoin"
		}
		fmt.Fprintf(b, "%s(right=%s, %d pages%s)\n", kind, op.Right.Name(), op.Right.NumPages(), outCols(op.Out))
		describe(b, op.Left, child)
	case *GroupAgg:
		fmt.Fprintf(b, "GroupAgg(group=%v, out=[%s])\n", op.GroupCols, describeItems(op.Items))
		describe(b, op.Child, child)
	case *ExchangeMerge:
		fmt.Fprintf(b, "ExchangeMerge(workers=%d)\n", op.Source.NumWorkers())
		describeSource(b, op.Source, child)
	default:
		fmt.Fprintf(b, "%T\n", op)
	}
}

// describeSource renders the parallel fragment under an ExchangeMerge.
func describeSource(b *strings.Builder, src ParallelSource, indent string) {
	b.WriteString(indent)
	child := indent + "  "
	switch src := src.(type) {
	case *ParallelHashJoin:
		key := newJoinKey(src.LeftKey, src.RightKey, src.NullEq, src.More)
		describeJoin(b, "ParallelHashJoin", src.Outer, fmt.Sprintf("%s, workers=%d", key, src.NumWorkers()), src.Out, src.Left, src.Right, child)
	case *ParallelHashGroup:
		fmt.Fprintf(b, "ParallelHashGroup(group=%v, out=[%s], workers=%d)\n", src.GroupCols, describeItems(src.Items), src.NumWorkers())
		describe(b, src.Child, child)
	default:
		fmt.Fprintf(b, "%T\n", src)
	}
}

// describeJoin renders a keyed join, its key, its Out and its two inputs.
func describeJoin(b *strings.Builder, kind string, outer bool, detail string, out []int, left, right Operator, child string) {
	if outer {
		kind = "Outer" + kind
	}
	fmt.Fprintf(b, "%s(%s%s)\n", kind, detail, outCols(out))
	describe(b, left, child)
	describe(b, right, child)
}

// outCols renders a join's Out; the Project above such a join only names.
func outCols(out []int) string {
	if out == nil {
		return ""
	}
	return fmt.Sprintf(", out=%v", out)
}

func describeItems(items []GroupItem) string {
	out := make([]string, len(items))
	for i, it := range items {
		if it.Agg == 0 {
			out[i] = it.Out.String()
		} else {
			out[i] = fmt.Sprintf("%s#%d", it.Agg, it.Col)
		}
	}
	return strings.Join(out, ", ")
}
