package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refPageID and refPool are the buffer pool as a slice in LRU order plus a
// residency map: the plainly correct O(B) LRU the linked-frame pool must
// match miss for miss.
type refPageID struct {
	file *HeapFile
	idx  int
}

type refPool struct {
	capacity int
	lru      []refPageID // front = least recently used
	resident map[refPageID]bool
	reads    int64
}

func (p *refPool) touch(id refPageID) {
	if p.capacity <= 0 {
		p.reads++
		return
	}
	if p.resident[id] {
		// Move to back (most recently used).
		for i, e := range p.lru {
			if e == id {
				copy(p.lru[i:], p.lru[i+1:])
				p.lru[len(p.lru)-1] = id
				break
			}
		}
		return
	}
	p.reads++
	if len(p.lru) == p.capacity {
		evict := p.lru[0]
		copy(p.lru, p.lru[1:])
		p.lru = p.lru[:len(p.lru)-1]
		delete(p.resident, evict)
	}
	p.lru = append(p.lru, id)
	p.resident[id] = true
}

func (p *refPool) invalidate(f *HeapFile) {
	out := p.lru[:0]
	for _, id := range p.lru {
		if id.file == f {
			delete(p.resident, id)
		} else {
			out = append(out, id)
		}
	}
	p.lru = out
}

// TestBufferPoolMatchesReferenceLRU drives the store and the reference LRU
// through seeded random interleavings of every operation that moves pages
// in or out of the pool — pool reads, direct reads, appends, Drop,
// Replace, TruncateTo and new temp files — over several files at once,
// and checks after every step that both counted the same reads and hold
// the same pages resident.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	for _, b := range []int{0, 1, 3, 32} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("B=%d/seed%d", b, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := NewStore(b)
				ref := &refPool{capacity: b, resident: make(map[refPageID]bool)}
				var files []*HeapFile
				for i := range 3 {
					f, _ := s.Create(fmt.Sprint("R", i), 1+rng.Intn(4))
					fill(f, rng.Intn(60))
					files = append(files, f)
				}
				s.ResetStats()
				for step := range 3000 {
					f := files[rng.Intn(len(files))]
					var op string
					switch r := rng.Intn(100); {
					case r < 55:
						op = "ReadPage"
						if n := f.NumPages(); n > 0 {
							i := rng.Intn(n)
							f.ReadPage(i)
							ref.touch(refPageID{f, i})
						}
					case r < 65:
						op = "ReadPageDirect"
						if n := f.NumPages(); n > 0 {
							f.ReadPageDirect(rng.Intn(n))
							ref.reads++
						}
					case r < 80:
						op = "Append+Seal"
						for range rng.Intn(12) {
							f.Append(intTuple(int64(step)))
						}
						f.Seal()
					case r < 85:
						op = "Replace"
						var rows []Tuple
						f.Scan(func(t Tuple) bool {
							if rng.Intn(3) > 0 {
								rows = append(rows, t)
							}
							return true
						})
						// The scan went through the pool too.
						for i := range f.NumPages() {
							ref.touch(refPageID{f, i})
						}
						f.Replace(rows)
						ref.invalidate(f)
					case r < 92:
						op = "TruncateTo"
						if n := f.NumTuples(); n > 0 {
							f.TruncateTo(rng.Intn(n))
							ref.invalidate(f)
						}
					case r < 96:
						op = "Drop"
						if len(files) > 3 || rng.Intn(4) == 0 {
							s.Drop(f.Name())
							ref.invalidate(f)
							files = slices.DeleteFunc(files, func(g *HeapFile) bool { return g == f })
							if len(files) < 3 {
								files = append(files, s.CreateTemp(1+rng.Intn(4)))
							}
						}
					default:
						op = "CreateTemp"
						nf := s.CreateTemp(1 + rng.Intn(4))
						fill(nf, rng.Intn(40))
						files = append(files, nf)
					}
					if got := s.Stats().Reads; got != ref.reads {
						t.Fatalf("step %d (%s): %d reads, reference LRU %d", step, op, got, ref.reads)
					}
					resident := 0
					for _, g := range files {
						for i, p := range g.pages {
							in := p.frame != 0
							if in {
								resident++
							}
							if in != ref.resident[refPageID{g, i}] {
								t.Fatalf("step %d (%s): %s page %d resident = %v, reference LRU disagrees", step, op, g.Name(), i, in)
							}
						}
					}
					if resident != len(ref.lru) {
						t.Fatalf("step %d (%s): %d pages resident in live files, reference LRU holds %d", step, op, resident, len(ref.lru))
					}
				}
			})
		}
	}
}

// TestReadPageAllocs: a pool read allocates nothing, hit or miss — the
// pool finds a page's frame in the page index and evicts by unlinking a
// list node, so there is no lookup table to grow.
func TestReadPageAllocs(t *testing.T) {
	const b = 4
	s := NewStore(b)
	f, _ := s.Create("R", 2)
	fill(f, 2*4*b) // four times the pool
	for i := range f.NumPages() {
		f.ReadPage(i) // every frame in use
	}
	hit := testing.AllocsPerRun(100, func() { f.ReadPage(f.NumPages() - 1) })
	i := 0
	before := s.Stats().Reads
	miss := testing.AllocsPerRun(100, func() {
		f.ReadPage(i % f.NumPages()) // a cyclic scan past B pages: every read misses
		i++
	})
	if reads := s.Stats().Reads - before; reads != 101 {
		t.Fatalf("%d misses in 101 cyclic reads, want every read to miss", reads)
	}
	if hit != 0 || miss != 0 {
		t.Errorf("ReadPage allocates %.1f per hit and %.1f per miss, want 0 and 0", hit, miss)
	}
}
