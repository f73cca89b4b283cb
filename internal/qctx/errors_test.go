package qctx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/storage"
)

// The taxonomy contract: every error family is matchable with errors.Is
// through realistic wrapping — fmt.Errorf %w chains, panic containment,
// the admission layer's OverloadError — and Retryable singles out exactly
// the injected-fault family.
func TestErrorTaxonomy(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("engine: %w", err) }
	contained := func(v any) error { return Recovered(v) }

	cases := []struct {
		name      string
		err       error
		is        []error // sentinels the error must match
		isNot     []error // sentinels it must not match
		retryable bool
	}{
		{
			name:  "timeout",
			err:   wrap(ErrQueryTimeout),
			is:    []error{ErrQueryTimeout},
			isNot: []error{ErrCanceled, ErrBudgetExceeded, ErrOverloaded, ErrInjectedFault},
		},
		{
			name:  "canceled",
			err:   wrap(ErrCanceled),
			is:    []error{ErrCanceled},
			isNot: []error{ErrQueryTimeout, ErrBudgetExceeded, ErrOverloaded},
		},
		{
			name:  "row budget",
			err:   wrap(ErrRowBudget),
			is:    []error{ErrRowBudget, ErrBudgetExceeded},
			isNot: []error{ErrMemoryBudget, ErrQueryTimeout, ErrOverloaded},
		},
		{
			name:  "memory budget",
			err:   wrap(ErrMemoryBudget),
			is:    []error{ErrMemoryBudget, ErrBudgetExceeded},
			isNot: []error{ErrRowBudget, ErrOverloaded},
		},
		{
			name:  "shed: queue full",
			err:   wrap(&OverloadError{Reason: "queue full", RetryAfter: 50 * time.Millisecond}),
			is:    []error{ErrOverloaded},
			isNot: []error{ErrQueryTimeout, ErrCanceled, ErrBudgetExceeded, ErrInjectedFault},
		},
		{
			name:  "shed: draining",
			err:   &OverloadError{Reason: "draining", RetryAfter: time.Second},
			is:    []error{ErrOverloaded},
			isNot: []error{ErrBudgetExceeded},
		},
		{
			name:      "injected fault, plain",
			err:       wrap(&storage.FaultError{Op: "read", File: "RA"}),
			is:        []error{ErrInjectedFault, fault.ErrInjected},
			isNot:     []error{ErrQueryTimeout, ErrBudgetExceeded, ErrOverloaded},
			retryable: true,
		},
		{
			name:      "injected fault, contained from panic",
			err:       contained(&storage.FaultError{Op: "torn-write", File: "$tmp3"}),
			is:        []error{ErrInjectedFault},
			isNot:     []error{ErrCanceled, ErrOverloaded},
			retryable: true,
		},
		{
			name:  "contained non-fault panic",
			err:   contained("index out of range"),
			is:    nil,
			isNot: []error{ErrInjectedFault, ErrQueryTimeout, ErrOverloaded},
		},
		{
			name:  "timeout racing an injected fault stays final",
			err:   fmt.Errorf("%w during %w", ErrQueryTimeout, ErrInjectedFault),
			is:    []error{ErrQueryTimeout, ErrInjectedFault},
			isNot: []error{ErrCanceled},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sentinel := range tc.is {
				if !errors.Is(tc.err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false, want true", tc.err, sentinel)
				}
			}
			for _, sentinel := range tc.isNot {
				if errors.Is(tc.err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = true, want false", tc.err, sentinel)
				}
			}
			if got := Retryable(tc.err); got != tc.retryable {
				t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.retryable)
			}
		})
	}
	if Retryable(nil) {
		t.Error("Retryable(nil) = true")
	}
}

// The shed error renders its hint and reason so operators can read logs
// without decoding error chains.
func TestOverloadErrorMessage(t *testing.T) {
	e := &OverloadError{Reason: "queue full", RetryAfter: 100 * time.Millisecond}
	for _, frag := range []string{"overloaded", "queue full", "100ms"} {
		if s := e.Error(); !containsFold(s, frag) {
			t.Errorf("message %q missing %q", s, frag)
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
