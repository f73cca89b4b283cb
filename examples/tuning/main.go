// Tuning shows the System R-era physical design workflow around the
// paper's transformations: bulk-load from CSV, collect statistics
// (ANALYZE), build a secondary index, watch the planner switch to an
// index scan for a selective restriction, and snapshot the tuned database
// to disk.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	nestedsql "repro"
)

func main() {
	db := nestedsql.Open(nestedsql.WithBufferPages(8))
	if err := db.CreateTable("ORDERS", []nestedsql.Column{
		{Name: "ID", Type: nestedsql.Int},
		{Name: "CUST", Type: nestedsql.Int},
		{Name: "TOTAL", Type: nestedsql.Float},
		{Name: "PLACED", Type: nestedsql.Date},
	}, 5, "ID"); err != nil {
		log.Fatal(err)
	}

	// Bulk-load synthetic orders via the CSV path.
	var csv strings.Builder
	csv.WriteString("id,cust,total,placed\n")
	for i := range 600 {
		fmt.Fprintf(&csv, "%d,%d,%d.50,%d-%d-8%d\n",
			i, i%120, (i*7)%90, i%12+1, i%28+1, i%10)
	}
	n, err := db.LoadCSV("ORDERS", strings.NewReader(csv.String()), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d orders (%d pages)\n\n", n, 600/5)

	const q = "SELECT ID, TOTAL FROM ORDERS WHERE CUST = 17 ORDER BY ID"

	before, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selective lookup before tuning: %d rows, %s\n", len(before.Rows), before.PageIO)

	// ANALYZE gives the planner selectivity estimates; the index gives it
	// a selective access path.
	if err := db.Analyze(); err != nil {
		log.Fatal(err)
	}
	if err := db.CreateIndex("ORDERS", "CUST"); err != nil {
		log.Fatal(err)
	}
	after, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after ANALYZE + index on CUST:   %d rows, %s\n", len(after.Rows), after.PageIO)
	// The trace names the access path: an index scan on ORDERS.CUST.
	for _, line := range after.Trace {
		fmt.Println("  plan:", line)
	}

	// Snapshot the whole database; Restore rebuilds it elsewhere.
	f, err := os.CreateTemp("", "orders-*.db")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if err := db.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("\nsnapshot written to %s\n", f.Name())

	g, err := os.Open(f.Name())
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	restored, err := nestedsql.Restore(g)
	if err != nil {
		log.Fatal(err)
	}
	res, err := restored.Query("SELECT COUNT(*) FROM ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored database has %v orders\n", res.Rows[0][0])
}
