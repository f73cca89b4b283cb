package exec

import (
	"cmp"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/value"
)

// Plan is an operator tree as EXPLAIN shows it, snapshotted when the plan
// is built: one node per operator in preorder, each with its depth and the
// names, page counts (as they were at planning time), keys, Out, group
// items and worker counts Describe prints — in one allocation, an index
// scan's predicate aside. A Plan holds no Operator and no heap file, so a
// query's trace pins none of its temp pages or hash tables, and DML after
// the snapshot cannot change the plan's text.
type Plan []planNode

type nodeKind uint8

const (
	nodeOther nodeKind = iota // name holds the operator's type
	nodeSeqScan
	nodeResidentScan
	nodeIndexScan
	nodeFilter
	nodeProject
	nodeDistinct
	nodeSort
	nodeMergeJoin
	nodeHashJoin         // inline: the join is not under an ExchangeMerge
	nodeParallelHashJoin // the source of an ExchangeMerge
	nodeNestedLoopJoin
	nodeGroupAgg
	nodeGroupJoin
	nodeParallelHashGroup
	nodeExchangeMerge
)

// planNode is what Describe prints of one operator; each kind reads only
// the fields its line shows.
type planNode struct {
	kind   nodeKind
	depth  uint16
	outer  bool   // an outer join
	nullEq bool   // the leading key pair is NULL-safe
	desc   bool   // a Sort with per-key directions
	n      int32  // pages (a scan, nested loops' right side); a resident scan's rows; workers
	l, r   int32  // the leading key pair
	name   string // a scan's relation, nested loops' right side
	form   string // a quantified join's Form
	cols   []int  // Sort keys, GroupCols, a join's Out
	more   []KeyPair
	items  []GroupItem
	sch    RowSchema   // a Project's output
	probe  *indexProbe // an IndexScan's predicate
}

// indexProbe is the predicate an IndexScan looks up: name holds its
// relation.
type indexProbe struct {
	column string
	op     value.CompareOp
	key    value.Value
}

// Snapshot takes the Plan of op's tree.
func Snapshot(op Operator) Plan {
	p := make(Plan, 0, countNodes(op))
	return p.add(op, 0)
}

// countNodes counts the nodes Snapshot will record under op.
func countNodes(op Operator) int {
	switch op := op.(type) {
	case *Filter:
		return 1 + countNodes(op.Child)
	case *Project:
		return 1 + countNodes(op.Child)
	case *Distinct:
		return 1 + countNodes(op.Child)
	case *Sort:
		return 1 + countNodes(op.Child)
	case *MergeJoin:
		return 1 + countNodes(op.Left) + countNodes(op.Right)
	case *ParallelHashJoin:
		return 1 + countNodes(op.Left) + countNodes(op.Right)
	case *NestedLoopJoin:
		return 1 + countNodes(op.Left)
	case *GroupAgg:
		return 1 + countNodes(op.Child)
	case *GroupJoin:
		return 1 + countNodes(op.Left) + countNodes(op.Right)
	case *ExchangeMerge:
		switch src := op.Source.(type) {
		case *ParallelHashJoin:
			return 2 + countNodes(src.Left) + countNodes(src.Right)
		case *ParallelHashGroup:
			return 2 + countNodes(src.Child)
		}
		return 2
	}
	return 1
}

func (p Plan) add(op Operator, depth uint16) Plan {
	n := planNode{depth: depth}
	var children [2]Operator
	switch op := op.(type) {
	case *SeqScan:
		n.kind, n.name, n.n = nodeSeqScan, cmp.Or(op.Name, op.File.Name()), int32(op.File.NumPages())
	case *ResidentScan:
		n.kind, n.name, n.n = nodeResidentScan, op.Name, int32(op.Rows.Len())
	case *IndexScan:
		n.kind, n.name = nodeIndexScan, op.Idx.Relation
		n.probe = &indexProbe{column: op.Idx.Column, op: op.Op, key: op.Key}
	case *Filter:
		n.kind, children[0] = nodeFilter, op.Child
	case *Project:
		n.kind, n.sch, children[0] = nodeProject, op.Sch, op.Child
	case *Distinct:
		n.kind, children[0] = nodeDistinct, op.Child
	case *Sort:
		n.kind, n.cols, n.desc, children[0] = nodeSort, op.Keys, op.Desc != nil, op.Child
	case *MergeJoin:
		n.kind, n.outer, n.cols = nodeMergeJoin, op.Outer, op.Out
		n.l, n.r, n.nullEq, n.more = int32(op.LeftKey), int32(op.RightKey), op.NullEq, op.More
		n.form = op.Quant.String()
		children = [2]Operator{op.Left, op.Right}
	case *ParallelHashJoin:
		n.kind, children = nodeHashJoin, [2]Operator{op.Left, op.Right}
		n.setHashJoin(op)
	case *NestedLoopJoin:
		n.kind, n.outer, n.cols = nodeNestedLoopJoin, op.Outer, op.Out
		n.name, n.n, children[0] = cmp.Or(op.RightName, op.Right.Name()), int32(op.Right.NumPages()), op.Left
		n.form = op.Quant.String()
	case *GroupAgg:
		n.kind, n.cols, n.items, children[0] = nodeGroupAgg, op.GroupCols, op.Items, op.Child
	case *GroupJoin:
		n.kind, n.outer, n.items = nodeGroupJoin, op.Outer, op.Items
		n.l, n.r, n.nullEq, n.more = int32(op.LeftKey), int32(op.RightKey), op.NullEq, op.More
		children = [2]Operator{op.Left, op.Right}
	case *ExchangeMerge:
		n.kind, n.n = nodeExchangeMerge, int32(op.Source.NumWorkers())
		p = append(p, n)
		return p.addSource(op.Source, depth+1)
	default:
		n.name = reflect.TypeOf(op).String()
	}
	p = append(p, n)
	for _, c := range children {
		if c != nil {
			p = p.add(c, depth+1)
		}
	}
	return p
}

// addSource records the parallel fragment under an ExchangeMerge.
func (p Plan) addSource(src ParallelSource, depth uint16) Plan {
	n := planNode{depth: depth}
	switch src := src.(type) {
	case *ParallelHashJoin:
		n.kind = nodeParallelHashJoin
		n.setHashJoin(src)
		p = append(p, n)
		return p.add(src.Left, depth+1).add(src.Right, depth+1)
	case *ParallelHashGroup:
		n.kind, n.cols, n.items, n.n = nodeParallelHashGroup, src.GroupCols, src.Items, int32(src.NumWorkers())
		p = append(p, n)
		return p.add(src.Child, depth+1)
	}
	n.name = reflect.TypeOf(src).String()
	return append(p, n)
}

func (n *planNode) setHashJoin(j *ParallelHashJoin) {
	n.outer, n.cols, n.n = j.Outer, j.Out, int32(j.NumWorkers())
	n.l, n.r, n.nullEq, n.more = int32(j.LeftKey), int32(j.RightKey), j.NullEq, j.More
	n.form = j.Quant.String()
}

// Describe renders a plan as an indented outline, the EXPLAIN view of a
// compiled plan.
func Describe(p Plan) string {
	var b strings.Builder
	for i := range p {
		p[i].describe(&b)
	}
	return b.String()
}

func (n *planNode) describe(b *strings.Builder) {
	for range n.depth {
		b.WriteString("  ")
	}
	switch n.kind {
	case nodeSeqScan:
		fmt.Fprintf(b, "SeqScan(%s, %d pages)\n", n.name, n.n)
	case nodeResidentScan:
		fmt.Fprintf(b, "ResidentScan(%s, %d tuples in memory)\n", n.name, n.n)
	case nodeIndexScan:
		fmt.Fprintf(b, "IndexScan(%s.%s %s %s)\n", n.name, n.probe.column, n.probe.op, n.probe.key)
	case nodeFilter:
		b.WriteString("Filter\n")
	case nodeProject:
		fmt.Fprintf(b, "Project(%s)\n", n.sch)
	case nodeDistinct:
		b.WriteString("Distinct\n")
	case nodeSort:
		dirs := ""
		if n.desc {
			dirs = " desc-mixed"
		}
		fmt.Fprintf(b, "Sort(keys=%v%s)\n", n.cols, dirs)
	case nodeMergeJoin:
		n.describeJoin(b, "MergeJoin", n.key().String())
	case nodeHashJoin:
		n.describeJoin(b, "HashJoin", n.key().String())
	case nodeParallelHashJoin:
		n.describeJoin(b, "ParallelHashJoin", fmt.Sprintf("%s, workers=%d", n.key(), n.n))
	case nodeNestedLoopJoin:
		kind := "NestedLoopJoin"
		if n.outer {
			kind = "OuterNestedLoopJoin"
		}
		fmt.Fprintf(b, "%s(right=%s, %d pages%s%s)\n", kind, n.name, n.n, n.deciding(), outCols(n.cols))
	case nodeGroupAgg:
		fmt.Fprintf(b, "GroupAgg(group=%v, out=[%s])\n", n.cols, describeItems(n.items))
	case nodeGroupJoin:
		n.describeJoin(b, "GroupJoin", fmt.Sprintf("%s, out=[%s]", n.key(), describeItems(n.items)))
	case nodeParallelHashGroup:
		fmt.Fprintf(b, "ParallelHashGroup(group=%v, out=[%s], workers=%d)\n", n.cols, describeItems(n.items), n.n)
	case nodeExchangeMerge:
		fmt.Fprintf(b, "ExchangeMerge(workers=%d)\n", n.n)
	default:
		b.WriteString(n.name + "\n")
	}
}

func (n *planNode) key() joinKey { return newJoinKey(int(n.l), int(n.r), n.nullEq, n.more) }

// describeJoin renders a keyed join's line: its key, the predicate a
// quantified join decides, and its Out.
func (n *planNode) describeJoin(b *strings.Builder, kind, detail string) {
	if n.outer {
		kind = "Outer" + kind
	}
	fmt.Fprintf(b, "%s(%s%s%s)\n", kind, detail, n.deciding(), outCols(n.cols))
}

// deciding renders the predicate a quantified join decides, "" for a join.
func (n *planNode) deciding() string {
	if n.form == "" {
		return ""
	}
	return ", " + n.form
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
		if it.Agg == value.AggNone {
			out[i] = it.Out.String()
		} else {
			out[i] = fmt.Sprintf("%s#%d", it.Agg, it.Col)
		}
	}
	return strings.Join(out, ", ")
}
