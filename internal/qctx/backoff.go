package qctx

import (
	"math/rand"
	"time"
)

// Backoff is the one retry-delay rule (transient-fault retries in
// admission, client reconnects): base·2^attempt for the 0-based attempt,
// capped at limit, then jittered to [d/2, d] so a fleet of retriers does
// not stampede in lockstep. The doubling is done by shifting limit down,
// not base up, so no attempt count can overflow. The caller serializes
// access to rng.
func Backoff(base, limit time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := limit
	if attempt >= 0 && base <= limit>>uint(attempt) {
		d = base << uint(attempt)
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}
