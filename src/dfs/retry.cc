#include "src/dfs/retry.h"

#include <algorithm>
#include <functional>

#include "src/common/latency.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/trace.h"

namespace flint {

namespace {

// Each backoff is scaled by a uniform draw from [1 - kJitterFraction,
// 1 + kJitterFraction], from an RNG seeded with the path hash xor kJitterSeed.
constexpr double kJitterFraction = 0.25;
constexpr uint64_t kJitterSeed = 0x9E3779B97F4A7C15ULL;

bool Retryable(const Status& status) { return status.code() == StatusCode::kUnavailable; }

// Shared attempt loop: `op` returns the status of one attempt. `kind` labels
// the trace ("put"/"get").
Status RetryLoop(const std::string& path, const char* kind, const DfsRetryPolicy& policy,
                 const std::function<Status()>& op, DfsRetryStats* stats) {
  Rng jitter(std::hash<std::string>{}(path) ^ kJitterSeed);
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
    sleep_s *= jitter.Uniform(1.0 - kJitterFraction, 1.0 + kJitterFraction);
    if (policy.deadline_seconds > 0.0) {
      const double elapsed = WallDuration(WallClock::now() - t0).count();
      if (elapsed + sleep_s >= policy.deadline_seconds) {
        break;  // the next attempt would land past the deadline
      }
    }
    if (TracingEnabled()) {
      Tracer::Global().RecordInstant("dfs_retry", "dfs",
                                     {{"attempt", static_cast<double>(attempt + 1)},
                                      {"backoff_s", sleep_s}},
                                     std::string(kind) + " " + path);
    }
    (void)WaitSeconds(sleep_s);  // no cancel check: always completes OK
  }
  if (stats != nullptr) {
    stats->attempts = attempts;
    // Budget exhausted on a transient error: the caller will abandon the op.
    stats->exhausted = !last.ok() && Retryable(last);
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
