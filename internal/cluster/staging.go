package cluster

// Staging-table accounting. Shuffles create per-shard staging tables on
// the workers and drop them best-effort when the query ends — but a
// worker that is unreachable at cleanup time, or whose drop reply is
// lost, keeps its copy, silently. The registry records every physical
// staging table and the workers it landed on, so leaks are observable
// (LiveStaging, the cluster tests' leak probe — mirroring
// spill.LiveFiles) and recoverable: once the query's own drop has run,
// the entry is ended, and Probe drops what is left on each worker it
// finds live. Staging names are unique per query, so an ended entry is
// never one an in-flight query still uses.

// stagingEntry is one physical staging table's registry record.
type stagingEntry struct {
	holders map[int]bool // workers that may hold it
	ended   bool         // the query's drop has run: what is left leaked
}

// stagingAdd records that worker w holds physical staging table phys.
func (co *Coordinator) stagingAdd(phys string, w int) {
	co.staging.Lock()
	defer co.staging.Unlock()
	e, ok := co.staging.tables[phys]
	if !ok {
		e = &stagingEntry{holders: make(map[int]bool)}
		co.staging.tables[phys] = e
	}
	e.holders[w] = true
}

// stagingForget records that worker w no longer holds phys, dropping
// the registry entry once no worker does.
func (co *Coordinator) stagingForget(phys string, w int) {
	co.staging.Lock()
	defer co.staging.Unlock()
	e, ok := co.staging.tables[phys]
	if !ok {
		return
	}
	delete(e.holders, w)
	if len(e.holders) == 0 {
		delete(co.staging.tables, phys)
	}
}

// dropStaging is a query's own cleanup of one physical staging table: it
// ends the entry, then drops the table from every live worker holding
// it, best-effort. A successful drop (or "unknown relation" — already
// gone) clears the worker from the entry; any other holder is left for
// Probe.
func (co *Coordinator) dropStaging(phys string) {
	var holders []int
	co.staging.Lock()
	if e, ok := co.staging.tables[phys]; ok {
		e.ended = true
		for w := range e.holders {
			holders = append(holders, w)
		}
	}
	co.staging.Unlock()
	for _, w := range holders {
		co.dropFrom(phys, w)
	}
}

// dropEndedStaging retries the drop of every ended staging table worker
// w still holds.
func (co *Coordinator) dropEndedStaging(w int) {
	var names []string
	co.staging.Lock()
	for phys, e := range co.staging.tables {
		if e.ended && e.holders[w] {
			names = append(names, phys)
		}
	}
	co.staging.Unlock()
	for _, phys := range names {
		co.dropFrom(phys, w)
	}
}

// dropFrom drops phys from w if w is live, and forgets it on success.
func (co *Coordinator) dropFrom(phys string, w int) {
	if co.health.live(w) && co.drop(w, phys) == nil {
		co.stagingForget(phys, w)
	}
}

// LiveStaging counts physical staging tables still registered on some
// worker. Zero after a clean query; anything else is a leak (or a dead
// worker still holding copies awaiting its next probe).
func (co *Coordinator) LiveStaging() int {
	co.staging.Lock()
	defer co.staging.Unlock()
	return len(co.staging.tables)
}
