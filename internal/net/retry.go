package net

import (
	"math/rand"
	"time"
)

// RetryPolicy governs how a Client re-sends requests that died with the
// connection (query.ErrConnLost). What is eligible is not the policy's
// business — the client retries idempotent reads, plus any request whose
// frame provably never left the process (see the resilience contract in
// README.md); the policy only shapes how hard and how long to try.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per request, first send included.
	// 0 or 1 disables retries (the zero value is the historical client:
	// one attempt, transport errors surface to the caller).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it (exponential), up to 64× base. 0 defaults to 1ms when
	// retries are on.
	BaseBackoff time.Duration
	// Budget caps total retries across the client's lifetime (all requests
	// summed); once spent, further failures surface immediately. 0 means
	// unlimited. The budget is the backstop that turns a dead server into
	// fast failures instead of an ever-growing retry queue.
	Budget int64
}

// attempts normalizes MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// jitter randomizes each backoff to ±(jitter/2)×backoff, decorrelating retry
// storms across pipelined callers.
const jitter = 0.5

// backoff computes the wait before retry number attempt (0-based), jittered
// by rng; a nil rng gives the bare doubling.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << min(attempt, 6) // capped at 64× base
	if rng != nil {
		// Uniform in [d·(1−jitter/2), d·(1+jitter/2)].
		d = time.Duration(float64(d) * (1 - jitter/2 + jitter*rng.Float64()))
	}
	if d < 0 {
		d = 0
	}
	return d
}
