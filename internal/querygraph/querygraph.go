// Package querygraph models a nested query as the multi-way tree of
// query blocks the paper uses (Figure 2): nodes are query blocks, edges
// are nested predicates labeled with their nesting type, and
// trans-aggregate references — correlated references that span a block
// containing an aggregate function, the condition that makes type-JA
// nesting "present" per section 9.1 — are detected and annotated.
//
// Kim's own NEST-G operated by "inspecting and reducing the query graph";
// this reproduction follows the paper's simpler recursive procedure for
// the transformation itself and uses the graph for analysis and
// explanation.
package querygraph

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/classify"
)

// Node is one query block in the tree.
type Node struct {
	// Name labels the node A, B, C, ... in preorder, matching the
	// paper's Figure 2 convention.
	Name  string
	Block *ast.QueryBlock
	Edges []Edge
	// TransAggregate reports that some reference inside this subtree
	// binds above the tree's root... see Build.
	TransAggRefs []ast.ColumnRef
}

// Edge connects a block to one nested block in its WHERE clause.
type Edge struct {
	Type classify.NestType
	To   *Node
}

// Build constructs the query tree for a resolved query. For every node it
// records the trans-aggregate references: free references of the node's
// subtree that cross a block whose SELECT clause aggregates (including the
// node itself), i.e. the references that will surface as type-JA nesting
// once inner levels are merged.
func Build(qb *ast.QueryBlock) *Node {
	counter := 0
	return build(qb, &counter)
}

func build(qb *ast.QueryBlock, counter *int) *Node {
	name := nodeName(*counter)
	*counter++
	n := &Node{Name: name, Block: qb}
	for _, p := range qb.Where {
		for _, sub := range ast.SubqueriesOf(p) {
			child := build(sub, counter)
			n.Edges = append(n.Edges, Edge{Type: classify.Classify(p), To: child})
			if sub.HasAggregate() {
				// References escaping an aggregate subtree are the
				// "trans-aggregate" join predicates of section 9.1.
				child.TransAggRefs = ast.FreeRefs(sub)
			}
		}
	}
	return n
}

// nodeName yields A, B, ..., Z, A1, B1, ...
func nodeName(i int) string {
	letter := string(rune('A' + i%26))
	if i < 26 {
		return letter
	}
	return fmt.Sprintf("%s%d", letter, i/26)
}

// Blocks counts the nodes of the subtree.
func (n *Node) Blocks() int {
	total := 1
	for _, e := range n.Edges {
		total += e.To.Blocks()
	}
	return total
}

// Depth is the height of the subtree (0 for a leaf).
func (n *Node) Depth() int {
	max := 0
	for _, e := range n.Edges {
		if d := e.To.Depth() + 1; d > max {
			max = d
		}
	}
	return max
}

// HasTypeJA reports whether type-JA nesting is present anywhere: an edge
// classified type-JA, which per section 9.1 happens exactly when "a join
// predicate reference spans a query block containing an aggregate
// function".
func (n *Node) HasTypeJA() bool {
	for _, e := range n.Edges {
		if e.Type == classify.TypeJA || e.To.HasTypeJA() {
			return true
		}
	}
	return false
}

// summary renders a one-line description of the node's block.
func (n *Node) summary() string {
	sel := make([]string, len(n.Block.Select))
	for i, s := range n.Block.Select {
		sel[i] = s.String()
	}
	from := make([]string, len(n.Block.From))
	for i, t := range n.Block.From {
		from[i] = t.String()
	}
	return fmt.Sprintf("%s: SELECT %s FROM %s", n.Name, strings.Join(sel, ", "), strings.Join(from, ", "))
}

// ASCII renders the tree in the style of the paper's Figure 2, with edges
// labeled by nesting type and trans-aggregate references called out.
func (n *Node) ASCII() string {
	var b strings.Builder
	n.ascii(&b, "")
	return b.String()
}

func (n *Node) ascii(b *strings.Builder, indent string) {
	b.WriteString(indent)
	b.WriteString(n.summary())
	if len(n.TransAggRefs) > 0 {
		refs := make([]string, len(n.TransAggRefs))
		for i, r := range n.TransAggRefs {
			refs[i] = r.String()
		}
		fmt.Fprintf(b, "   [aggregate block; outer refs: %s]", strings.Join(refs, ", "))
	}
	b.WriteByte('\n')
	for i, e := range n.Edges {
		connector := "├─"
		childIndent := indent + "│  "
		if i == len(n.Edges)-1 {
			connector = "└─"
			childIndent = indent + "   "
		}
		fmt.Fprintf(b, "%s%s[%s]─ ", indent, connector, e.Type)
		// Render the child inline after the edge label.
		sub := strings.TrimPrefix(e.To.renderSub(childIndent), childIndent)
		b.WriteString(sub)
	}
}

func (n *Node) renderSub(indent string) string {
	var b strings.Builder
	n.ascii(&b, indent)
	return b.String()
}
