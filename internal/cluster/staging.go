package cluster

// Staging-table accounting. Shuffles create per-shard staging tables on
// the workers and drop them best-effort when the query ends — but a
// worker that is unreachable at cleanup time keeps its copy, silently.
// The registry records every physical staging table and the workers it
// landed on, so leaks are observable (LiveStaging, the cluster tests'
// leak probe — mirroring spill.LiveFiles) and recoverable
// (SweepStaging retries the drops once the fleet heals).

// stagingAdd records that worker w holds physical staging table phys.
func (co *Coordinator) stagingAdd(phys string, w int) {
	co.staging.Lock()
	defer co.staging.Unlock()
	set, ok := co.staging.tables[phys]
	if !ok {
		set = make(map[int]bool)
		co.staging.tables[phys] = set
	}
	set[w] = true
}

// stagingForget records that worker w no longer holds phys, dropping
// the registry entry once no worker does.
func (co *Coordinator) stagingForget(phys string, w int) {
	co.staging.Lock()
	defer co.staging.Unlock()
	set, ok := co.staging.tables[phys]
	if !ok {
		return
	}
	delete(set, w)
	if len(set) == 0 {
		delete(co.staging.tables, phys)
	}
}

// stagingHolders returns the workers currently recorded as holding phys.
func (co *Coordinator) stagingHolders(phys string) []int {
	co.staging.Lock()
	defer co.staging.Unlock()
	var out []int
	for w := range co.staging.tables[phys] {
		out = append(out, w)
	}
	return out
}

// dropStaging drops one physical staging table from every worker
// holding it, best-effort: a successful drop (or "unknown relation" —
// already gone) clears the registry entry; an unreachable worker keeps
// it, to be retried by SweepStaging.
func (co *Coordinator) dropStaging(phys string) {
	for _, w := range co.stagingHolders(phys) {
		if !co.health.live(w) {
			continue
		}
		if err := co.drop(w, phys); err == nil {
			co.stagingForget(phys, w)
		}
	}
}

// LiveStaging counts physical staging tables still registered on some
// worker. Zero after a clean query; anything else is a leak (or a dead
// worker still holding copies awaiting a sweep).
func (co *Coordinator) LiveStaging() int {
	co.staging.Lock()
	defer co.staging.Unlock()
	return len(co.staging.tables)
}

// SweepStaging retries every registered staging drop and returns the
// count still live. Chaos tests heal the fleet, sweep, and assert zero.
func (co *Coordinator) SweepStaging() int {
	co.staging.Lock()
	var names []string
	for phys := range co.staging.tables {
		names = append(names, phys)
	}
	co.staging.Unlock()
	for _, phys := range names {
		co.dropStaging(phys)
	}
	return co.LiveStaging()
}
