// Package schema implements the catalog: relation schemas, column types and
// keys, and the name resolution that binds every column reference in a
// query block tree to a table in scope. Resolution is what turns the
// paper's syntactic notion of a "join predicate which references the
// relation of an outer query block" into something the classifier can test
// mechanically: after resolution every reference is fully qualified, so a
// correlated reference is simply one whose binding is not in the inner
// block's own FROM clause.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/value"
)

// Column describes one column of a relation.
type Column struct {
	Name string
	Type value.Kind
}

// Relation describes a stored relation (base table or materialized
// temporary table).
type Relation struct {
	Name    string
	Columns []Column
	// Key names the primary key columns, if declared. The paper's S, P,
	// SP relations declare keys; keys also let tests assert which inner
	// relations make NEST-N-J duplicate-safe.
	Key []string
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// HasColumn reports whether the relation has the named column.
func (r *Relation) HasColumn(name string) bool { return r.ColumnIndex(name) >= 0 }

// IsKey reports whether the given column is the entire declared key of the
// relation (so its values are unique).
func (r *Relation) IsKey(col string) bool {
	return len(r.Key) == 1 && strings.EqualFold(r.Key[0], col)
}

// CreateSQL renders the relation as the CREATE TABLE statement that
// defines it — the one renderer behind a coordinator's DDL broadcast, a
// rejoin's snapshot meta frame and a metamorph repro script. value.Kind
// prints as a type name the parser's column-type table reads back.
func (r *Relation) CreateSQL() string {
	defs := make([]string, len(r.Columns), len(r.Columns)+1)
	for i, c := range r.Columns {
		defs[i] = c.Name + " " + c.Type.String()
	}
	if len(r.Key) > 0 {
		defs = append(defs, "PRIMARY KEY ("+strings.Join(r.Key, ", ")+")")
	}
	return "CREATE TABLE " + r.Name + " (" + strings.Join(defs, ", ") + ")"
}

// Catalog is the set of known relations. Lookups and mutations are safe
// for concurrent use: queries resolve names against it while DDL defines
// and drops relations. Relation values are immutable once defined — the
// lock guards only the name map.
type Catalog struct {
	mu        sync.RWMutex
	relations map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{relations: make(map[string]*Relation)}
}

// Define adds a relation to the catalog. It fails on duplicate relation
// names, empty or duplicate column names, and key columns that do not
// exist.
func (c *Catalog) Define(r *Relation) error {
	if r.Name == "" {
		return fmt.Errorf("schema: relation must have a name")
	}
	key := strings.ToUpper(r.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.relations[key]; ok {
		return fmt.Errorf("schema: relation %s already defined", r.Name)
	}
	if len(r.Columns) == 0 {
		return fmt.Errorf("schema: relation %s has no columns", r.Name)
	}
	seen := make(map[string]bool, len(r.Columns))
	for _, col := range r.Columns {
		if col.Name == "" {
			return fmt.Errorf("schema: relation %s has an unnamed column", r.Name)
		}
		up := strings.ToUpper(col.Name)
		if seen[up] {
			return fmt.Errorf("schema: relation %s has duplicate column %s", r.Name, col.Name)
		}
		seen[up] = true
	}
	for _, k := range r.Key {
		if !r.HasColumn(k) {
			return fmt.Errorf("schema: relation %s key column %s does not exist", r.Name, k)
		}
	}
	c.relations[key] = r
	return nil
}

// Drop removes a relation (used for temporary tables).
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.relations, strings.ToUpper(name))
}

// Lookup finds a relation by name, case-insensitively.
func (c *Catalog) Lookup(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.relations[strings.ToUpper(name)]
	return r, ok
}

// Names returns the defined relation names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.relations))
	for _, r := range c.relations {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}
