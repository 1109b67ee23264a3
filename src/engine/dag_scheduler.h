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

// The locality preference for (rdd, partition) among `nodes`: the node
// holding the most bytes of the task's cached input. The walk follows the
// lineage breadth-first through narrow one-to-one deps (applying each dep's
// partition offset), stopping at shuffle deps and below kSaved RDDs (a DFS
// read has no locality). On each path it stops at the nearest cached block,
// memory or spill, and credits its bytes to every node holding it. A tie
// goes to the node the walk credited first, and at one level deps are
// visited in order, so a Join of equal-sized inputs prefers its left input.
// nullopt when no node caches any visited block. Exposed for unit tests.
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

  // What a task body computes: a result task's partition, or a map task's
  // buckets. The buckets are registered on the executor, so a map win hands
  // on_success an empty payload.
  using TaskPayload = std::vector<PartitionPtr>;

 private:
  // Both stage kinds (shuffle-map and result) run through one retry loop so
  // their park/retry/speculation behaviour cannot drift. Each cycle launches
  // one attempt for every missing slot that has none outstanding, parks on
  // WaitForLiveNode when the cluster has nothing schedulable, then consumes
  // outcomes while enforcing per-attempt speculation deadlines and the
  // stage watchdog. The loop alone launches, runs and reports attempts
  // (first attempts, retries and speculative duplicates alike); a stage kind
  // supplies its slots, its task and what to do with a win. Slot ids are
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
    // A slot's task computes partition `partition(slot)` of `rdd` and is
    // placed by that pair (PickNode).
    RddPtr rdd;
    std::function<int(int slot)> partition;
    // The shuffle a map stage writes; -1 for a result stage. It names the
    // task: a map task fires kShuffleMapTaskRun, opens a "shuffle_map_task"
    // span and reports `shuffle_id` to the task probe, where a result task
    // opens a "task" span and reports `rdd`'s id. A map task registers its
    // payload as the map output on the executor, after the fault stretch and
    // only if not cancelled, then fires kShuffleMapTaskDone.
    int shuffle_id = -1;
    // Computes one partition on the executor, after the fault preamble. It
    // can outlive the loop (a cancelled loser may still be running when the
    // loop returns), so it captures by value.
    std::function<Result<TaskPayload>(TaskContext& tc, int partition)> body;
    // Consumes a slot's winning payload; returns true if it made progress.
    std::function<bool(int slot, TaskPayload&& payload)> on_success;
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
