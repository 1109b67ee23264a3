// DAG scheduler: cuts the lineage graph into stages at shuffle boundaries,
// runs shuffle-map stages bottom-up, then the result stage, and handles the
// failure classes transient servers produce:
//   - kUnavailable (node revoked): the task's node died mid-flight -> a free
//     re-dispatch on a surviving node;
//   - kDataLoss: a shuffle input vanished with a revoked node -> re-run the
//     producing map stage (recursively), then retry;
//   - everything else: retried with exponential backoff up to the per-task
//     attempt budget, then surfaced as the stage's Status;
//   - stragglers (slow, hung, or flaky nodes): per-task deadlines derived
//     from streaming runtime quantiles launch speculative duplicate attempts
//     on a different node; the first success wins and losers are cancelled
//     cooperatively (SpeculationConfig in context.h).
// When every node is gone (the paper's whole-cluster revocation in batch
// mode), the scheduler parks until the node manager supplies replacements.
// A configurable stage watchdog bounds every stage's wall-clock time so a
// cluster-wide hang becomes a clean kDeadlineExceeded instead of a wedge.

#ifndef SRC_ENGINE_DAG_SCHEDULER_H_
#define SRC_ENGINE_DAG_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/engine/rdd.h"
#include "src/engine/task_context.h"

namespace flint {

class FlintContext;
struct NodeState;
class OutcomeQueue;  // defined in dag_scheduler.cc

// Stamped by the executor at the moment an attempt actually begins running
// (steady-clock ticks since epoch; 0 = still queued). Shared between the
// stage loop and the task lambda so deadlines measure execution time, not
// queue wait.
using ExecStartStamp = std::shared_ptr<std::atomic<int64_t>>;

// Smooth round-robin with unit weights (nginx-style SWRR at weight 1): adds
// one to each credit, picks the highest credit (first on ties), and charges
// the winner one round (the number of indices), so with no preference and
// no skip it is exact round-robin. A `preferred` index (locality) takes the
// pick instead of the leader when its credit is within one round of the
// leader's, so preference can skew placement by at most about one round per
// node. Indices set in `skip` still earn credit but never win (an empty
// `skip` skips none; a non-empty one must leave some index unset).
// `credits` is updated in place. Exposed for unit tests; PickNode persists
// credits on NodeState.
size_t SwrrPick(std::vector<int64_t>& credits, std::optional<size_t> preferred = std::nullopt,
                const std::vector<bool>& skip = {});

// The locality preference for (rdd, partition) among `nodes`: walks the
// lineage breadth-first through narrow one-to-one deps (applying each dep's
// partition offset), stopping at shuffle deps and below kSaved RDDs (a DFS
// read has no locality). Returns the index of the first node whose block
// manager holds a visited block, memory or spill; at one level deps are
// checked in order, so a Join prefers its left input. nullopt when no node
// caches any visited block. Exposed for unit tests.
std::optional<size_t> LineagePreferredNode(const RddPtr& rdd, int partition,
                                           const std::vector<std::shared_ptr<NodeState>>& nodes);

class DagScheduler {
 public:
  explicit DagScheduler(FlintContext* ctx) : ctx_(ctx) {}

  // Computes all partitions of `rdd`, in order. Serialized by the caller.
  Result<std::vector<PartitionPtr>> Materialize(const RddPtr& rdd);

  // Computes only the listed partitions (each in range, no duplicates),
  // returning them in the order given. Materialize delegates here with the
  // full 0..n-1 range; Take drives it incrementally.
  Result<std::vector<PartitionPtr>> MaterializePartitions(const RddPtr& rdd,
                                                          const std::vector<int>& partitions);

  // Outcome of one dispatched task attempt (public so the completion queue
  // in the implementation file can carry it).
  struct TaskOutcome {
    uint64_t attempt_id = 0;      // which attempt produced this outcome
    int index = -1;               // partition (result stage) or map partition
    Status status;                // outcome
    int failed_shuffle = -1;      // set when status is kDataLoss
    PartitionPtr data;            // result-stage payload
  };

 private:
  // Both stage kinds (shuffle-map and result) run through one retry loop so
  // their park/retry/speculation behaviour cannot drift. Each cycle submits
  // one attempt for every missing slot that has none outstanding, parks on
  // WaitForLiveNode when the cluster has nothing schedulable, then consumes
  // outcomes while enforcing per-attempt speculation deadlines and the
  // stage watchdog. Stage kinds plug in via the callbacks; slot ids are
  // stable within one RunStageLoop call (map partition for shuffle stages,
  // request index for result stages).
  struct StageLoopSpec {
    const char* what = "stage";  // stage kind for error messages and traces
    int max_stalled_rounds = 0;  // progress-free dispatch rounds before giving up
    int recovery_depth = 0;      // recursion depth for RecoverShuffle
    std::function<bool()> complete;
    std::function<Status()> prepare;  // runs before each dispatch sweep
    // Slots still missing a usable result, in dispatch order.
    std::function<std::vector<int>()> missing;
    // Node choice for `slot`, skipping `exclude` (speculative duplicates must
    // land elsewhere; -1 excludes nothing). `homeless_dealt` is the stage's
    // PickNode deal. nullptr = nothing schedulable.
    std::function<std::shared_ptr<NodeState>(int slot, NodeId exclude,
                                             std::vector<NodeId>& homeless_dealt)>
        pick;
    // Submits one attempt; false if the node's pool rejected it. The task
    // must stamp `exec_start` the moment it begins executing and push exactly
    // one TaskOutcome carrying `attempt_id` to `outcomes`.
    std::function<bool(int slot, const std::shared_ptr<NodeState>& node,
                       const CancelToken& cancel, uint64_t attempt_id, int attempt_number,
                       const ExecStartStamp& exec_start,
                       const std::shared_ptr<OutcomeQueue>& outcomes)>
        submit;
    // Consumes one winning outcome; returns true if it made new progress.
    std::function<bool(TaskOutcome&&)> on_success;
  };
  Status RunStageLoop(const StageLoopSpec& spec);

  // Runs all shuffle-map stages `rdd` transitively needs.
  Status EnsureShuffleDeps(const RddPtr& rdd, int depth);
  // Brings one shuffle to completion (all map outputs registered).
  Status RunShuffleStage(const std::shared_ptr<ShuffleInfo>& shuffle, int depth);
  // Re-runs the producing stage of a shuffle after a fetch failure.
  Status RecoverShuffle(int shuffle_id, int depth);

  // Picks an execution node for (rdd, partition) among nodes accepting new
  // tasks, skipping `exclude`: SwrrPick (plain round-robin) with the
  // LineagePreferredNode as its bounded preference. A homeless task (no
  // preference) is dealt: while some schedulable node is missing from
  // `homeless_dealt`, the nodes in it cannot win, and the winner is added.
  // Returns nullptr when no such node exists — the caller's stage loop
  // parks, never this function.
  std::shared_ptr<NodeState> PickNode(const RddPtr& rdd, int partition,
                                      std::vector<NodeId>& homeless_dealt, NodeId exclude = -1);

  FlintContext* ctx_;
  static constexpr int kMaxRecoveryDepth = 64;

  // Service-time distribution of the most recently completed stage: a new
  // stage arms its speculation deadlines from this before its own quantile
  // reaches quorum, so short stages (fewer tasks than the quorum) still get
  // straggler protection.
  // Only touched by the scheduler thread (jobs are serialized by
  // FlintContext::job_mutex_; nested stage loops run on the same thread).
  double carried_p50_ = 0.0;
  double carried_p95_ = 0.0;
  size_t carried_count_ = 0;
};

}  // namespace flint

#endif  // SRC_ENGINE_DAG_SCHEDULER_H_
