package cluster

import "sync"

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

// dropStaging is a query's own cleanup of its physical staging tables: it
// ends their entries, then drops each table from every live worker
// holding it, best-effort, all (table, worker) pairs at once, and waits
// for every drop. A successful drop (or "unknown relation" — already
// gone) clears the worker from the entry; any other holder is left for
// Probe.
func (co *Coordinator) dropStaging(phys []string) {
	type drop struct {
		phys string
		w    int
	}
	var drops []drop
	co.staging.Lock()
	for _, name := range phys {
		if e, ok := co.staging.tables[name]; ok {
			e.ended = true
			for w := range e.holders {
				drops = append(drops, drop{name, w})
			}
		}
	}
	co.staging.Unlock()
	var wg sync.WaitGroup
	for _, d := range drops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.dropFrom(d.phys, d.w)
		}()
	}
	wg.Wait()
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
