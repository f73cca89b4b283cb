// Package fault is the one seeded fault injector behind every chaos
// gate. A Plan names a seed, a cap on hard faults and one rate per Site;
// an Injector rolls it. Every site — and, in a Proxy, every connection
// direction — draws from its own stream derived from the plan seed, so
// arming one layer never shifts another layer's schedule, and a storm
// that fails replays from the plan text it prints (Plan.String, Parse).
// The layers keep only what a fault does to them: storage panics with a
// *storage.FaultError, spill flips a byte under its checksum, the WAL
// writes a prefix and poisons itself, the Proxy cuts, flips and stalls
// TCP chunks.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected fault wraps, so a harness
// recognises its own faults with errors.Is after they have crossed panic
// containment, the engine boundary and the wire. qctx.ErrInjectedFault
// is this value.
var ErrInjected = errors.New("injected fault")

// Site is one place a fault can fire.
type Site uint8

const (
	StorageRead    Site = iota // a page read panics
	StorageTear                // an append to a temp file stores half the tuple, then panics
	StorageLatency             // a page read or append sleeps Plan.Latency first (soft)
	SpillWrite                 // a run-file append or flush fails
	SpillRead                  // a run-file read fails
	SpillCorrupt               // a written record has a byte flipped under its checksum
	WALTear                    // an append writes a prefix of its frame and poisons the log
	NetDelay                   // a proxied chunk sleeps Plan.Latency first (soft)
	NetSplit                   // a chunk is forwarded in several small writes (soft)
	NetCorrupt                 // one bit of a chunk is flipped in flight
	NetTruncate                // a chunk is cut mid-way and the link hard-closed
	NetDrop                    // both sides of the link are closed at once
	NetPartition               // the link falls silent both ways but stays open
	numSites
)

var siteNames = [numSites]string{
	"storage.read", "storage.tear", "storage.latency",
	"spill.write", "spill.read", "spill.corrupt", "wal.tear",
	"net.delay", "net.split", "net.corrupt", "net.truncate", "net.drop", "net.partition",
}

func (s Site) String() string { return siteNames[s] }

// soft sites slow or reshape traffic without failing it: they are not
// counted by Injected and not capped by Plan.Max.
func (s Site) soft() bool { return s == StorageLatency || s == NetDelay || s == NetSplit }

// Rates holds one probability per site: Rates{StorageRead: 0.01}.
type Rates [numSites]float64

// Plan is a whole fault schedule. Its text form is comma-separated
// key=value: seed, max, latency, tear ('+'-separated) and the site names,
// e.g. "seed=7,max=1,wal.tear=0.02".
type Plan struct {
	Seed int64
	// Max caps the hard faults one injector fires, all sites together;
	// 0 means unlimited.
	Max   int64
	Rates Rates
	// Latency is how long a StorageLatency or NetDelay hit sleeps.
	Latency time.Duration
	// TearPrefixes lists the file-name prefixes StorageTear may hit; empty
	// means only anonymous temporaries ($tmpN). Storms add "TEMP" for the
	// transform algorithms' named temp tables. Base tables are left out so
	// a fault-free rerun sees uncorrupted data.
	TearPrefixes []string
}

func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.Max != 0 {
		fmt.Fprintf(&b, ",max=%d", p.Max)
	}
	for s, r := range p.Rates {
		if r != 0 {
			fmt.Fprintf(&b, ",%s=%g", Site(s), r)
		}
	}
	if p.Latency != 0 {
		fmt.Fprintf(&b, ",latency=%s", p.Latency)
	}
	if len(p.TearPrefixes) > 0 {
		fmt.Fprintf(&b, ",tear=%s", strings.Join(p.TearPrefixes, "+"))
	}
	return b.String()
}

// Parse reads the text form String writes. Unknown keys, malformed
// values, a negative cap and rates outside [0,1] are errors.
func Parse(text string) (Plan, error) {
	var p Plan
	for _, kv := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "max":
			if p.Max, err = strconv.ParseInt(v, 10, 64); err == nil && p.Max < 0 {
				err = errors.New("negative cap")
			}
		case "latency":
			p.Latency, err = time.ParseDuration(v)
		case "tear":
			p.TearPrefixes = strings.Split(v, "+")
		default:
			s := slices.Index(siteNames[:], k)
			if s < 0 {
				return Plan{}, fmt.Errorf("fault: unknown site %q", k)
			}
			if p.Rates[s], err = strconv.ParseFloat(v, 64); err == nil && !(p.Rates[s] >= 0 && p.Rates[s] <= 1) {
				err = errors.New("rate outside [0,1]")
			}
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: %s: %v", kv, err)
		}
	}
	return p, nil
}

// Firing is one hard fault that fired: the site, and which of the draws
// of the stream that rolled it (1-based) it was.
type Firing struct {
	Site    Site
	Ordinal int64
}

// Injector rolls one Plan. It is safe for concurrent use; a nil
// *Injector never fires, so a layer's un-armed path is one atomic load.
type Injector struct {
	plan     Plan
	sites    [numSites]*Stream
	inflight atomic.Int64
	mu       sync.Mutex
	fired    []Firing
}

// New creates the injector of a plan.
func New(p Plan) *Injector {
	in := &Injector{plan: p}
	for s := range in.sites {
		in.sites[s] = in.stream(uint64(s))
	}
	return in
}

// Plan returns the plan the injector rolls.
func (in *Injector) Plan() Plan { return in.plan }

// Hit draws from site's stream and reports whether the fault fires.
func (in *Injector) Hit(site Site) bool { return in != nil && in.sites[site].Hit(site) }

// Intn draws a uniform int in [0,n) from site's stream: where to cut,
// once Hit said to cut.
func (in *Injector) Intn(site Site, n int) int { return in.sites[site].Intn(n) }

// Sleep sleeps Plan.Latency when the soft site hits.
func (in *Injector) Sleep(site Site) {
	if in.Hit(site) {
		time.Sleep(in.plan.Latency)
	}
}

// Injected reports how many hard faults have fired; it never exceeds
// Plan.Max.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int64(len(in.fired))
}

// Fired returns the hard faults fired so far, in firing order. With one
// goroutine driving a layer, equal plans give equal logs.
func (in *Injector) Fired() []Firing {
	in.mu.Lock()
	defer in.mu.Unlock()
	return slices.Clone(in.fired)
}

// Begin and End bracket one operation of an armed layer (sleep and
// panic unwind included), so that InFlight reads zero only when no
// goroutine is still inside it — the storms' drain check.
func (in *Injector) Begin()          { in.inflight.Add(1) }
func (in *Injector) End()            { in.inflight.Add(-1) }
func (in *Injector) InFlight() int64 { return in.inflight.Load() }

// Stream is one seeded sequence of draws: one per site, and in a Proxy
// one per connection direction.
type Stream struct {
	in  *Injector
	mu  sync.Mutex
	rng *rand.Rand
	n   int64 // Hit draws so far
}

// Conn derives the stream of one direction (0 or 1) of the idx-th
// connection a Proxy accepted. The same (plan seed, idx, dir) yields the
// same draws whenever it is derived.
func (in *Injector) Conn(idx int64, dir int) *Stream {
	return in.stream(uint64(numSites) + 2*uint64(idx) + uint64(dir))
}

// stream seeds the k-th stream of the plan: the seed and k mixed by the
// splitmix64 finaliser, so neighbouring seeds and streams share nothing.
func (in *Injector) stream(k uint64) *Stream {
	z := uint64(in.plan.Seed) + (k+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return &Stream{in: in, rng: rand.New(rand.NewSource(int64(z ^ z>>31)))}
}

// Hit is the one roll: a site whose rate is zero draws nothing; a hard
// hit fires only while the plan's cap has room, and is logged.
func (st *Stream) Hit(site Site) bool {
	rate := st.in.plan.Rates[site]
	if rate <= 0 {
		return false
	}
	st.mu.Lock()
	st.n++
	ord, hit := st.n, st.rng.Float64() < rate
	st.mu.Unlock()
	if !hit || site.soft() {
		return hit
	}
	in := st.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.Max > 0 && int64(len(in.fired)) >= in.plan.Max {
		return false
	}
	in.fired = append(in.fired, Firing{site, ord})
	return true
}

// Intn draws a uniform int in [0,n).
func (st *Stream) Intn(n int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rng.Intn(n)
}
