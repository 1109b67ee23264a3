// Retry with exponential backoff, jitter, and a per-operation deadline for
// transient DFS failures (kUnavailable: injected write failures, outage
// windows, a degraded store). Any other error code is surfaced immediately —
// retrying an InvalidArgument or NotFound cannot help.
//
// Jitter is deterministic per path (seeded from the path hash) so fault
// tests replay identically while concurrent writers still decorrelate.

#ifndef SRC_DFS_RETRY_H_
#define SRC_DFS_RETRY_H_

#include <string>

#include "src/common/status.h"
#include "src/dfs/dfs.h"

namespace flint {

struct DfsRetryPolicy {
  // Total attempts including the first; <= 1 disables retries.
  int max_attempts = 4;
  double initial_backoff_seconds = 0.002;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.1;
  // Total elapsed budget across attempts and backoffs; once exceeded the
  // last failure is returned. <= 0 disables the deadline.
  double deadline_seconds = 1.0;
};

// What one call did. Callers export it: attempts - 1 retries were made, and
// `exhausted` marks a transient failure that outlasted the budget.
struct DfsRetryStats {
  int attempts = 0;
  bool exhausted = false;
  double elapsed_seconds = 0.0;
};

// Stores `object` at `path`, retrying transient failures per `policy`.
Status PutWithRetry(Dfs& dfs, const std::string& path, const DfsObject& object,
                    const DfsRetryPolicy& policy, DfsRetryStats* stats = nullptr);

// Fetches `path`, retrying transient failures per `policy`. NotFound is
// returned immediately (a missing object will not appear by waiting).
Result<DfsObject> GetWithRetry(const Dfs& dfs, const std::string& path,
                               const DfsRetryPolicy& policy, DfsRetryStats* stats = nullptr);

}  // namespace flint

#endif  // SRC_DFS_RETRY_H_
