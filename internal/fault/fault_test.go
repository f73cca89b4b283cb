package fault

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCapHoldsUnderConcurrency is the one cap test for every layer: at
// rate 1 with eight goroutines released together on one site, exactly
// Max hits fire and Injected never reads above Max, not even transiently
// (a watcher polls it meanwhile). Soft sites are neither capped nor
// counted. The parent's spill injector — check the count, then add,
// outside its lock — fails this form about once in a thousand rounds
// under -race, hence the repeats.
func TestCapHoldsUnderConcurrency(t *testing.T) {
	const goroutines, rolls, rounds = 8, 100, 60
	for site := Site(0); site < numSites; site++ {
		for _, max := range []int64{1, 3} {
			for round := 0; round < rounds; round++ {
				var rates Rates
				rates[site] = 1
				in := New(Plan{Seed: int64(round), Max: max, Rates: rates})

				start, stop := make(chan struct{}), make(chan struct{})
				var hits, over atomic.Int64
				var watcher, rollers sync.WaitGroup
				watcher.Add(1)
				go func() {
					defer watcher.Done()
					for {
						if n := in.Injected(); n > max {
							over.Store(n)
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				for g := 0; g < goroutines; g++ {
					rollers.Add(1)
					go func() {
						defer rollers.Done()
						<-start
						for i := 0; i < rolls; i++ {
							if in.Hit(site) {
								hits.Add(1)
							}
						}
					}()
				}
				close(start)
				rollers.Wait()
				close(stop)
				watcher.Wait()

				want, counted := max, max
				if site.soft() {
					want, counted = goroutines*rolls, 0
				}
				if hits.Load() != want || in.Injected() != counted || over.Load() != 0 {
					t.Fatalf("%v max=%d round %d: %d hits (want %d), Injected = %d (want %d), watcher saw %d",
						site, max, round, hits.Load(), want, in.Injected(), counted, over.Load())
				}
			}
		}
	}
}

func TestPlanTextRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Seed: 7, Max: 1, Rates: Rates{WALTear: 0.02}},
		{Seed: -3, Rates: Rates{StorageRead: 0.008, StorageTear: 0.04, StorageLatency: 0.02},
			Latency: 200 * time.Microsecond, TearPrefixes: []string{"$tmp", "TEMP"}},
		{Seed: 1 << 40, Max: 48, Latency: 2 * time.Millisecond, Rates: Rates{NetDelay: 0.05, NetSplit: 0.25,
			NetCorrupt: 0.01, NetTruncate: 0.01, NetDrop: 0.01, NetPartition: 0.005}},
		{Rates: Rates{SpillWrite: 1, SpillRead: 1e-9, SpillCorrupt: 1.0 / 3}},
	}
	for _, p := range plans {
		got, err := Parse(p.String())
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", p, got, err, p)
		}
	}
	if got := plans[1].String(); got != "seed=7,max=1,wal.tear=0.02" {
		t.Errorf("text form = %q", got)
	}
	for _, bad := range []string{
		"", "seed", "seed=", "seed=x", "max=-1", "latency=fast", "wal.tear=2", "wal.tear=-0.1",
		"wal.tear=NaN", "wal.rip=0.1", "storage=0.1", "seed=1,,max=2", "seed=1;max=2",
	} {
		if p, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", bad, p)
		}
	}
}

// draws records what a stream yields: twelve Hit outcomes per net site,
// each followed by an Intn.
func draws(st *Stream) []int {
	var out []int
	for i := 0; i < 12; i++ {
		for site := NetDelay; site <= NetPartition; site++ {
			hit := 0
			if st.Hit(site) {
				hit = 1
			}
			out = append(out, hit, st.Intn(4096))
		}
	}
	return out
}

// TestConnStreamsReplay is the net sites' replay claim in the form that
// does not depend on where a live socket cuts its chunks: the stream of
// (seed, connection index, direction) yields the same draws whenever it
// is derived — whatever was derived or drawn before — and another seed,
// index or direction yields other draws.
func TestConnStreamsReplay(t *testing.T) {
	var rates Rates
	for site := NetDelay; site <= NetPartition; site++ {
		rates[site] = 0.5
	}
	plan := Plan{Seed: 99, Rates: rates}
	in := New(plan)
	want := draws(in.Conn(3, 1))
	draws(in.Conn(2, 0)) // unrelated draws in between
	in.Hit(NetDrop)      // including on the site's own stream
	if got := draws(in.Conn(3, 1)); !reflect.DeepEqual(got, want) {
		t.Error("the same injector derived another stream for the same connection and direction")
	}
	if got := draws(New(plan).Conn(3, 1)); !reflect.DeepEqual(got, want) {
		t.Error("an equal plan derived another stream for the same connection and direction")
	}
	other := plan
	other.Seed++
	for name, st := range map[string]*Stream{
		"direction": in.Conn(3, 0), "index": in.Conn(4, 1), "seed": New(other).Conn(3, 1),
	} {
		if reflect.DeepEqual(draws(st), want) {
			t.Errorf("another %s drew the same stream", name)
		}
	}
}

// TestSitesDrawIndependently: which of a site's draws fire depends on
// the seed and that site's rate alone, not on what else is armed or drawn.
func TestSitesDrawIndependently(t *testing.T) {
	fired := func(p Plan) (out []Firing) {
		in := New(p)
		for i := 0; i < 400; i++ {
			for site := Site(0); site < numSites; site++ {
				in.Hit(site)
			}
		}
		for _, f := range in.Fired() {
			if f.Site == StorageRead {
				out = append(out, f)
			}
		}
		return out
	}
	alone := fired(Plan{Seed: 5, Rates: Rates{StorageRead: 0.05}})
	crowded := fired(Plan{Seed: 5, Rates: Rates{StorageRead: 0.05, StorageTear: 0.5, SpillWrite: 0.3, WALTear: 0.9, NetDrop: 0.2}})
	if len(alone) == 0 || !reflect.DeepEqual(alone, crowded) {
		t.Errorf("storage.read fired at %v alone and at %v beside other sites", alone, crowded)
	}
	if reseeded := fired(Plan{Seed: 6, Rates: Rates{StorageRead: 0.05}}); reflect.DeepEqual(alone, reseeded) {
		t.Errorf("seeds 5 and 6 fired storage.read at the same draws: %v", alone)
	}
}
