package storage

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fault"
)

// FaultError is the panic payload of an injected fault. The storage API
// has no error returns — page reads and appends are infallible on the
// in-memory substrate — so faults surface as panics, exactly the shape a
// corrupted page or failed device read would take in this engine; the
// lifecycle layer's containment must turn them into per-query errors.
type FaultError struct {
	Op   string // "read", "torn-write"
	File string // heap file name
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("%s fault on %s: %v", e.Op, e.File, fault.ErrInjected)
}

// Unwrap ties every FaultError to the fault.ErrInjected sentinel.
func (e *FaultError) Unwrap() error { return fault.ErrInjected }

// SetFaults arms (or, with nil, disarms) the store's fault sites. The
// pointer is atomic so a harness can disarm between the injected run and
// the fault-free rerun without racing in-flight readers.
func (s *Store) SetFaults(in *fault.Injector) { s.faults.Store(in) }

// onRead runs before a page read, outside the store mutex (latency must
// not stall unrelated storage traffic). It may sleep, and may panic with
// a *FaultError.
func onRead(in *fault.Injector, file string) {
	in.Sleep(fault.StorageLatency)
	if in.Hit(fault.StorageRead) {
		panic(&FaultError{Op: "read", File: file})
	}
}

// onAppend runs before a tuple append, outside the store mutex. It may
// sleep, and returns non-nil when this append should tear: the caller
// then writes a truncated tuple and panics with the returned FaultError.
// Only temporary files (per Plan.TearPrefixes) tear.
func onAppend(in *fault.Injector, file string) *FaultError {
	in.Sleep(fault.StorageLatency)
	if tearable(in.Plan().TearPrefixes, file) && in.Hit(fault.StorageTear) {
		return &FaultError{Op: "torn-write", File: file}
	}
	return nil
}

// tearable reports whether a file name is eligible for torn writes.
func tearable(prefixes []string, file string) bool {
	if len(prefixes) == 0 {
		prefixes = []string{"$tmp"}
	}
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(file, p) })
}

// TempCount reports how many temporary files currently exist — anonymous
// materializations ($tmpN) and per-query namespaced temp tables
// (TEMPn#qN). The chaos harness asserts this returns to zero after every
// run, faulted or not, so failed materializations cannot leak
// intermediates.
func (s *Store) TempCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name := range s.files {
		if strings.HasPrefix(name, "$tmp") || strings.Contains(name, "#q") {
			n++
		}
	}
	return n
}
