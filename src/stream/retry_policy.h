// Retry policy for stage re-execution (AF-Stream-style at-least-once).
//
// The seed runtime retried failing messages immediately and without bound
// on attempt spacing; under correlated faults (an overloaded provider, a
// flaky link) immediate retries just hammer the failing dependency. The
// policy below spaces re-executions with capped exponential backoff plus
// decorrelating jitter, and bounds the total time a request may spend being
// retried via a per-request deadline measured from submission.

#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace ppstream {

struct RetryPolicy {
  /// Extra executions after the first failed attempt (0 = fail fast).
  int max_retries = 1;
  /// Backoff before the first retry. 0 keeps the seed's immediate-retry
  /// behaviour.
  double initial_backoff_seconds = 0;
  /// Backoff growth per retry (exponential).
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff sleep.
  double max_backoff_seconds = 0.050;
  /// Fraction of the backoff randomized away: the sleep is drawn uniformly
  /// from [b * (1 - jitter), b], decorrelating retry storms across stages.
  double jitter = 0.5;
  /// Wall-clock budget per request measured from Submit(); once exceeded
  /// the request is failed (DeadlineExceeded) instead of retried further.
  /// 0 disables the deadline.
  double deadline_seconds = 0;

  /// `max_retries` immediate retries and no deadline — the seed semantics
  /// (RetryPolicy{} is FromMaxRetries(1)).
  static RetryPolicy FromMaxRetries(int max_retries) {
    RetryPolicy policy;
    policy.max_retries = max_retries;
    policy.initial_backoff_seconds = 0;
    return policy;
  }

  /// Backoff before retry number `retry` (1-based), jittered via `rng`.
  double BackoffSeconds(int retry, Rng& rng) const {
    if (initial_backoff_seconds <= 0) return 0;
    double backoff = initial_backoff_seconds;
    for (int i = 1; i < retry; ++i) backoff *= backoff_multiplier;
    backoff = std::min(backoff, max_backoff_seconds);
    const double j = std::clamp(jitter, 0.0, 1.0);
    return backoff * (1.0 - j * rng.NextDouble());
  }
};

}  // namespace ppstream
