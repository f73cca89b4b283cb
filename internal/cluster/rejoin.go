package cluster

// Worker rejoin and the health prober. A dead worker re-enters the
// routing table only through Rejoin, which takes each shard slice it
// hosts by one rule (healthTracker.rejoinSource): re-ship it whole from a
// live peer; else keep the worker's own copy, if that is the shard's last
// copy and still there; else fail with ErrShardUnavailable. A re-ship
// that fails half-way leaves a half-built copy on a dead worker; a copy
// becomes a last copy only while its worker is live, and a dead worker
// turns live only through a completed rejoin, so no rule trusts it and
// nothing needs to remember it. The prober heals suspect workers,
// rejoins dead ones, and drops leaked staging tables from healthy ones.

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/schema"
	"repro/internal/wire"
)

// Rejoin rebuilds every shard slice worker w hosts by the rejoin rule
// and returns it to the routing table. The worker must be dead; errors
// leave it dead for the next probe to retry. Runs under the write lock,
// so no statement observes a half-rebuilt worker.
func (co *Coordinator) Rejoin(w int) error {
	if !co.health.beginRejoin(w) {
		return fmt.Errorf("cluster: worker %d is %s, not dead", w, co.health.state(w))
	}
	co.mu.Lock()
	err := co.rejoinLocked(w)
	// Flip the worker healthy still under the write lock: a DML in the gap
	// would skip the rejoining worker, which would then miss its write.
	co.health.finishRejoin(w, err == nil)
	co.mu.Unlock()
	return err
}

func (co *Coordinator) rejoinLocked(w int) error {
	for _, name := range co.cat.Names() {
		rel, ok := co.cat.Lookup(name)
		if !ok {
			continue
		}
		for _, s := range co.hostedShards(w) {
			srel := shardRelation(rel, rel.Name, s)
			var err error
			switch src := co.health.rejoinSource(w, s); src {
			case -1:
				err = fmt.Errorf("%w %d", ErrShardUnavailable, s)
			case w:
				// A last copy that came back empty is a lost shard: the
				// "unknown relation" also strikes w's last-copy record.
				if _, err = co.collect(w, "SELECT COUNT(*) FROM "+srel.Name); unknownRelation(err) {
					err = fmt.Errorf("%w %d: worker %d's last copy is gone: %w", ErrShardUnavailable, s, w, err)
				}
			default:
				err = co.shipSnapshot(src, w, srel)
			}
			if err != nil {
				return fmt.Errorf("cluster: rejoin of worker %d: %s: %w", w, srel.Name, err)
			}
		}
	}
	return nil
}

// shipSnapshot rebuilds one physical table on dst from src's copy: drop
// any stale remnant, recreate from the coordinator's schema, stream the
// snapshot across — each batch src sends lands on dst as a Load — and
// verify src's shipped schema matches: a mismatch means the replicas
// diverged structurally and the rejoin must not paper over it.
func (co *Coordinator) shipSnapshot(src, dst int, srel *schema.Relation) error {
	create := srel.CreateSQL()
	if err := co.drop(dst, srel.Name); err != nil {
		return err
	}
	if _, err := co.collect(dst, create); err != nil {
		return err
	}
	var meta wire.SnapshotMeta
	var landErr error // dst's failure, classified by its own attempt — not src's
	err := co.withWorker(src, func(c *client.Conn) error {
		var err error
		meta, _, err = c.Snapshot(srel.Name, func(b wire.RowBatch) error {
			_, landErr = co.load(dst, srel.Name, b.Columns, b.Rows)
			return landErr
		})
		if landErr != nil {
			return nil
		}
		return err
	})
	if err == nil {
		err = landErr
	}
	if err == nil && meta.CreateSQL != create {
		err = fmt.Errorf("cluster: snapshot schema diverged: worker %d has %q, catalog says %q",
			src, meta.CreateSQL, create)
	}
	return err
}

// probeLoop is the background health prober.
func (co *Coordinator) probeLoop(interval time.Duration) {
	defer co.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		for w := range co.pools {
			co.Probe(w)
		}
	}
}

// Probe runs one prober tick's work on worker w, now: a suspect worker
// heals on a clean round-trip, a reachable dead one gets a rejoin attempt
// (errors leave it dead for the next probe), and one found healthy has
// its leaked staging tables dropped. It reports whether w is healthy
// afterwards; harnesses and tests call it for deterministic timing.
func (co *Coordinator) Probe(w int) bool {
	var ok bool
	switch co.health.state(w) {
	case workerHealthy:
		ok = true
	case workerSuspect:
		ok = co.probeWorker(w)
	case workerDead:
		ok = co.probeWorker(w) && co.Rejoin(w) == nil
	}
	if ok {
		co.dropEndedStaging(w)
	}
	return ok
}

// probeWorker checks reachability with a trivial statement. It is the
// prober's own attempt rule, gentler than withWorker's: a worker that
// cannot be dialed takes a strike, but one that dials and then fails
// the exchange (a faulty link) is merely not healed this tick. For a
// dead worker it only reports reachability — rejoin decides the rest.
func (co *Coordinator) probeWorker(w int) bool {
	conn, err := co.pools[w].Get()
	if err != nil {
		co.health.markFailure(w)
		return false
	}
	// An idle pooled conn can be stale; a real round-trip proves the
	// worker serves. __PROBE__ lies in the reserved __ namespace, so no
	// CREATE can make the name exist and the DROP touches nothing. (A bare
	// PROBE__S0 would NOT be safe: it is user table PROBE's shard 0.)
	_, err = conn.Collect("DROP TABLE __PROBE____S0", client.Options{Timeout: co.cfg.IOTimeout})
	if err != nil && !unknownRelation(err) {
		co.pools[w].Discard(conn)
		return false
	}
	co.pools[w].Put(conn)
	co.health.markSuccess(w)
	return true
}
