package cluster

// Worker rejoin and the health prober. A dead worker (crashed,
// restarted empty, or partitioned past the breaker) re-enters the
// routing table only after catching up: for every shard slice it hosts,
// a live replica ships a full snapshot — schema first, then rows — and
// the coordinator rebuilds the slice on the returning worker before
// flipping it healthy; a slice with no live replica comes from the copy
// every replica that can vouch for one agrees on (agreedCopy). The
// prober drives this automatically: suspect workers are probe-dialed
// back to healthy, dead workers get a rejoin attempt each tick.

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Rejoin rebuilds every shard slice worker w hosts from live replicas,
// or checks it against the other dead ones, and returns it to the
// routing table. The worker must be dead; errors
// leave it dead for the next probe to retry. Runs under the write lock,
// so no statement observes a half-rebuilt worker.
func (co *Coordinator) Rejoin(w int) error {
	if !co.health.beginRejoin(w) {
		return fmt.Errorf("cluster: worker %d is %s, not dead", w, co.health.state(w))
	}
	co.mu.Lock()
	err := co.rejoinLocked(w)
	// Flip the worker healthy while still holding the write lock. If the
	// lock were released first, a DML could run in the gap, see the
	// worker still rejoining and skip it — and the freshly "caught-up"
	// worker would silently miss a committed write.
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
			src := -1
			for _, r := range co.replicasOf(s) {
				if r != w && co.health.live(r) {
					src = r
					break
				}
			}
			srel := shardRelation(rel, rel.Name, s)
			var err error
			if src < 0 {
				src, err = co.agreedCopy(w, s, srel)
			}
			if err == nil && src != w {
				err = co.shipSnapshot(src, w, srel)
			}
			if err != nil {
				return fmt.Errorf("cluster: rejoin of worker %d: %s: %w", w, srel.Name, err)
			}
		}
	}
	// Every copy w hosts is whole. What is still marked torn belongs to
	// a table dropped since, and must not outlive the rejoin into a later
	// table of that name that w will take writes for.
	for k := range co.torn {
		if k.w == w {
			delete(co.torn, k)
		}
	}
	return nil
}

// tornSlice is one worker's copy of one physical table.
type tornSlice struct {
	phys string
	w    int
}

// agreedCopy is rejoin's rule for a shard with no live replica to ship
// from: every replica of s is dead or rejoining. At R=2 on three workers
// any two share a shard, so two workers one burst of link faults trips
// would otherwise each wait for the other for ever. Every replica's copy
// is read whole, as a re-ship reads it — except a torn one, which a
// re-ship that failed may have left half-built and which proves nothing.
// When the rest hold the same rows under the catalog's schema, that is
// the shard's copy: every acked write reached a replica that acked it,
// and one that missed a write was marked dead, never to be a re-ship
// source again before its own rejoin, so the acked write is in every
// untorn copy. It returns w when w's own copy is one of them, else the
// replica to re-ship w from. A write that reached some replicas and not
// others (an ack lost where no peer acked) leaves them different, and a
// restarted-empty replica cannot be read: either way the shard stays
// unavailable, since nothing says which copy is right. A single replica
// has nothing to agree with.
func (co *Coordinator) agreedCopy(w, s int, srel *schema.Relation) (int, error) {
	replicas := co.replicasOf(s)
	if len(replicas) < 2 {
		return -1, fmt.Errorf("%w %d", ErrShardUnavailable, s)
	}
	create := srel.CreateSQL()
	src := -1
	var agreed []storage.Tuple
	for _, r := range replicas {
		if co.torn[tornSlice{srel.Name, r}] {
			continue
		}
		var rows []storage.Tuple
		err := co.withWorker(r, func(c *client.Conn) error {
			rows = nil // per attempt
			meta, _, err := c.Snapshot(srel.Name, func(b wire.RowBatch) error {
				rows = append(rows, b.Rows...)
				return nil
			})
			if err == nil && meta.CreateSQL != create {
				err = fmt.Errorf("schema diverged: worker %d has %q, catalog says %q", r, meta.CreateSQL, create)
			}
			return err
		})
		if err != nil {
			return -1, fmt.Errorf("%w %d: worker %d's copy: %w", ErrShardUnavailable, s, r, err)
		}
		if src < 0 {
			src, agreed = r, rows
		} else if d := storage.Diff(storage.AgreeBag, rows, agreed); d != "" {
			return -1, fmt.Errorf("%w %d: workers %d and %d hold different copies: %s", ErrShardUnavailable, s, src, r, d)
		}
	}
	if src < 0 {
		return -1, fmt.Errorf("%w %d: every copy is torn", ErrShardUnavailable, s)
	}
	if !co.torn[tornSlice{srel.Name, w}] {
		return w, nil
	}
	return src, nil
}

// shipSnapshot rebuilds one physical table on dst from src's copy: drop
// any stale remnant, recreate from the coordinator's schema, stream the
// snapshot across — each batch src sends lands on dst as a Load — and
// verify src's shipped schema matches: a mismatch means the replicas
// diverged structurally and the rejoin must not paper over it. dst's
// copy is torn from the drop until the last row lands.
func (co *Coordinator) shipSnapshot(src, dst int, srel *schema.Relation) error {
	key := tornSlice{srel.Name, dst}
	co.torn[key] = true
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
	if err == nil {
		delete(co.torn, key)
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

// Probe runs one immediate health probe of worker w, exactly as a
// prober tick would: a suspect worker heals on a clean round-trip, a
// reachable dead worker gets a rejoin attempt (errors leave it dead for
// the next probe). It reports whether the worker is live afterwards.
// Exported for harnesses and tests that need deterministic probe timing
// instead of the background ticker.
func (co *Coordinator) Probe(w int) bool {
	switch co.health.state(w) {
	case workerSuspect:
		return co.probeWorker(w)
	case workerDead:
		if co.probeWorker(w) {
			return co.Rejoin(w) == nil
		}
		return false
	}
	return co.health.live(w)
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
	// worker serves. The probed name's logical part (__PROBE__) lies
	// inside the reserved __ namespace, so no CREATE can ever make it
	// exist — neither as a user table nor as any table's shard slice —
	// and the DROP answers fast and touches nothing. (A bare PROBE__S0
	// would NOT be safe: user table PROBE is legal, and its shard-0
	// slice is exactly that name.)
	_, err = conn.Collect("DROP TABLE __PROBE____S0", client.Options{Timeout: co.cfg.IOTimeout})
	if err != nil && !unknownRelation(err) {
		co.pools[w].Discard(conn)
		return false
	}
	co.pools[w].Put(conn)
	co.health.markSuccess(w)
	return true
}
