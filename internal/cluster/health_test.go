package cluster

import "testing"

// TestHealthLastCopyRule pins, on the tracker alone, when a worker leaves
// the routing table and which copy a rejoin may take, for 3 workers at
// R=2: shard 0 lives on workers {0, 1}, shard 1 on {1, 2}, shard 2 on
// {2, 0}.
func TestHealthLastCopyRule(t *testing.T) {
	tracker := func() *healthTracker { return newHealthTracker([][]int{{0, 1}, {1, 2}, {2, 0}}) }
	strike := func(h *healthTracker, w, n int) {
		for i := 0; i < n; i++ {
			h.markFailure(w)
		}
	}
	states := func(t *testing.T, h *healthTracker, want ...string) {
		t.Helper()
		for w, s := range h.snapshot() {
			if s != want[w] {
				t.Fatalf("states %v, want %v", h.snapshot(), want)
			}
		}
	}
	source := func(t *testing.T, h *healthTracker, w, s, want int) {
		t.Helper()
		if got := h.rejoinSource(w, s); got != want {
			t.Fatalf("rejoinSource(%d, %d) = %d, want %d", w, s, got, want)
		}
	}

	t.Run("strikes spare a last live copy", func(t *testing.T) {
		h := tracker()
		strike(h, 1, 5)
		strike(h, 2, 5)
		states(t, h, "healthy", "dead", "suspect")
		h.markSuccess(2)
		states(t, h, "healthy", "dead", "healthy")
		source(t, h, 1, 1, 2) // re-ship from the peer the breaker spared
	})
	t.Run("a diverged only live copy is kept", func(t *testing.T) {
		h := tracker()
		strike(h, 1, 2)
		h.markDiverged(2, 2) // missed a shard-2 write worker 0 acked
		states(t, h, "healthy", "dead", "dead")
		source(t, h, 1, 1, -1)
		source(t, h, 2, 1, 2) // its own shard-1 copy: the last one
		source(t, h, 2, 2, 0) // the shard it missed: re-shipped
		if !h.beginRejoin(2) {
			t.Fatal("beginRejoin(2) refused a dead worker")
		}
		h.finishRejoin(2, true)
		source(t, h, 1, 1, 2)
	})
	t.Run("never the last copy of the shard it missed", func(t *testing.T) {
		h := tracker()
		// Worker 0 acked a shard-0 write, then a strike killed it while
		// worker 1, which missed the write, still looked live.
		strike(h, 0, 2)
		h.markDiverged(1, 0)
		states(t, h, "dead", "dead", "healthy")
		source(t, h, 1, 0, -1)
		source(t, h, 0, 0, -1)
	})
	t.Run("lost state is no last copy", func(t *testing.T) {
		h := tracker()
		strike(h, 1, 2)
		h.markDiverged(2, 2)
		h.markDead(2) // its shard-1 copy turned out empty
		source(t, h, 2, 1, -1)
		source(t, h, 1, 1, -1)
	})
}
