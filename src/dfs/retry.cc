#include "src/dfs/retry.h"

#include <algorithm>
#include <functional>

#include "src/common/latency.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flint {

namespace {

bool Retryable(const Status& status) { return status.code() == StatusCode::kUnavailable; }

// Shared attempt loop: `op` returns the status of one attempt. `kind` labels
// telemetry ("put"/"get"); retries are cold, so per-retry registry lookups
// are fine.
Status RetryLoop(const std::string& path, const char* kind, const DfsRetryPolicy& policy,
                 const std::function<Status()>& op, DfsRetryStats* stats) {
  Rng jitter(std::hash<std::string>{}(path) ^ policy.jitter_seed);
  const auto t0 = WallClock::now();
  const int max_attempts = std::max(1, policy.max_attempts);
  Status last = Status::Ok();
  int attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++attempts;
    last = op();
    if (last.ok() || !Retryable(last)) {
      break;
    }
    if (attempt + 1 >= max_attempts) {
      break;
    }
    double sleep_s = BackoffSeconds(attempt, policy.initial_backoff_seconds,
                                    policy.max_backoff_seconds, policy.backoff_multiplier);
    if (policy.jitter_fraction > 0.0) {
      sleep_s *= jitter.Uniform(1.0 - policy.jitter_fraction, 1.0 + policy.jitter_fraction);
    }
    if (policy.deadline_seconds > 0.0) {
      const double elapsed = WallDuration(WallClock::now() - t0).count();
      if (elapsed + sleep_s >= policy.deadline_seconds) {
        break;  // the next attempt would land past the deadline
      }
    }
    MetricsRegistry::Global().GetCounter("flint_dfs_retry_attempts")->Increment();
    if (TracingEnabled()) {
      Tracer::Global().RecordInstant("dfs_retry", "dfs",
                                     {{"attempt", static_cast<double>(attempt + 1)},
                                      {"backoff_s", sleep_s}},
                                     std::string(kind) + " " + path);
    }
    (void)WaitSeconds(sleep_s);  // no cancel check: always completes OK
  }
  if (!last.ok() && Retryable(last)) {
    // Budget exhausted on a transient error: the caller will abandon the op.
    MetricsRegistry::Global().GetCounter("flint_dfs_retry_exhausted")->Increment();
  }
  if (stats != nullptr) {
    stats->attempts = attempts;
    stats->elapsed_seconds = WallDuration(WallClock::now() - t0).count();
  }
  return last;
}

}  // namespace

Status PutWithRetry(Dfs& dfs, const std::string& path, const DfsObject& object,
                    const DfsRetryPolicy& policy, DfsRetryStats* stats) {
  return RetryLoop(path, "put", policy, [&] { return dfs.Put(path, object); }, stats);
}

Result<DfsObject> GetWithRetry(const Dfs& dfs, const std::string& path,
                               const DfsRetryPolicy& policy, DfsRetryStats* stats) {
  Result<DfsObject> result = NotFound("DFS object " + path);
  Status st = RetryLoop(
      path, "get", policy,
      [&] {
        result = dfs.Get(path);
        return result.status();
      },
      stats);
  if (!st.ok()) {
    return st;
  }
  return result;
}

}  // namespace flint
