package storage

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

func row(n int64) Tuple {
	return Tuple{value.NewInt(n), value.NewString("x"), value.NewInt(n * 2)}
}

// catchFault runs fn and returns the *FaultError it panics with (nil when
// fn completes without a fault).
func catchFault(t *testing.T, fn func()) (fe *FaultError) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		var ok bool
		if fe, ok = v.(*FaultError); !ok {
			t.Fatalf("panic value %v (%T) is not a *FaultError", v, v)
		}
	}()
	fn()
	return nil
}

func TestFaultInjectorDeterministic(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewStore(4)
		s.SetFaults(fault.New(fault.Plan{Seed: seed, Rates: fault.Rates{fault.StorageRead: 0.3}}))
		f, _ := s.Create("R", 2)
		s.SetFaults(nil) // load fault-free
		for i := range 20 {
			f.Append(row(int64(i)))
		}
		f.Seal()
		s.SetFaults(fault.New(fault.Plan{Seed: seed, Rates: fault.Rates{fault.StorageRead: 0.3}}))
		var faults []int64
		for i := range f.NumPages() {
			if fe := catchFault(t, func() { f.ReadPage(i) }); fe != nil {
				faults = append(faults, int64(i))
			}
		}
		return faults
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("seed 42 at p=0.3 over 10 pages injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
}

func TestFaultErrorIdentity(t *testing.T) {
	fe := &FaultError{Op: "read", File: "R"}
	if !errors.Is(fe, fault.ErrInjected) {
		t.Error("FaultError must wrap fault.ErrInjected")
	}
}

func TestReadFaultPanicsAndDisarms(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 2)
	for i := range 4 {
		f.Append(row(int64(i)))
	}
	f.Seal()
	inj := fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageRead: 1}})
	s.SetFaults(inj)
	fe := catchFault(t, func() { f.ReadPage(0) })
	if fe == nil {
		t.Fatal("p=1.0 read must fault")
	}
	if fe.Op != "read" || fe.File != "R" {
		t.Errorf("fault = %+v", fe)
	}
	if inj.Injected() != 1 {
		t.Errorf("Injected = %d, want 1", inj.Injected())
	}
	// Disarming restores normal service and the store is undamaged.
	s.SetFaults(nil)
	if got := len(f.ReadPage(0)); got != 2 {
		t.Errorf("page 0 has %d tuples after disarm, want 2", got)
	}
}

func TestTornWriteTruncatesAndPanics(t *testing.T) {
	s := NewStore(4)
	tmp := s.CreateTemp(4)
	s.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageTear: 1}}))
	fe := catchFault(t, func() { tmp.Append(row(7)) })
	if fe == nil {
		t.Fatal("p=1.0 append to a temp must tear")
	}
	if fe.Op != "torn-write" {
		t.Errorf("Op = %q", fe.Op)
	}
	s.SetFaults(nil)
	// The torn tuple is on the page, truncated — exactly the corruption a
	// failed materialization must clean up by dropping the temp.
	pg := tmp.ReadPage(0)
	if len(pg) != 1 || len(pg[0]) >= len(row(7)) {
		t.Errorf("torn page = %v, want one truncated tuple", pg)
	}
	if s.TempCount() != 1 {
		t.Fatalf("TempCount = %d, want 1", s.TempCount())
	}
	s.Drop(tmp.Name())
	if s.TempCount() != 0 {
		t.Fatalf("TempCount after drop = %d, want 0", s.TempCount())
	}
}

func TestTearPrefixes(t *testing.T) {
	s := NewStore(4)
	base, _ := s.Create("PARTS", 4)
	temp, _ := s.Create("TEMP1", 4)
	s.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageTear: 1}, TearPrefixes: []string{"$tmp", "TEMP"}}))
	// Base tables never tear, whatever the config, so fault-free reruns
	// see uncorrupted data.
	if fe := catchFault(t, func() { base.Append(row(1)) }); fe != nil {
		t.Fatalf("base table tore: %v", fe)
	}
	if fe := catchFault(t, func() { temp.Append(row(1)) }); fe == nil {
		t.Fatal("TEMP1 must be tearable with the TEMP prefix configured")
	}
}

func TestLatencyInjection(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 2)
	f.Append(row(1))
	f.Seal()
	s.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 20 * time.Millisecond}))
	start := time.Now()
	f.ReadPage(0)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("read took %v, want >= 20ms of injected latency", d)
	}
}
