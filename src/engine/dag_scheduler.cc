#include "src/engine/dag_scheduler.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/latency.h"
#include "src/common/log.h"
#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/engine/context.h"
#include "src/engine/task_context.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) deadlines, backoff, and service-time quantiles are wall-clock by design; task payloads never read the clock

namespace flint {

// Collects task outcomes from executor threads back to the scheduler.
// Defined at namespace scope (not anonymous) so StageLoopSpec callbacks in
// the header can name it by forward declaration. Held through shared_ptr by
// the stage loop AND every in-flight task lambda: the loop may return (a
// watchdog timeout, a fatal error, or a win whose cancelled loser is still
// draining) while attempts are still running, and their final Push must land
// in live memory.
class OutcomeQueue {
 public:
  void Push(DagScheduler::TaskOutcome outcome) {
    MutexLock lock(&mutex_);
    queue_.push_back(std::move(outcome));
    cv_.NotifyOne();
  }

  // Waits up to `timeout` for an outcome; nullopt when none arrived in time
  // (the stage loop's tick for deadline scans and the watchdog).
  std::optional<DagScheduler::TaskOutcome> PopWithTimeout(WallDuration timeout) {
    const WallTime deadline =
        WallClock::now() + std::chrono::duration_cast<WallClock::duration>(timeout);
    MutexLock lock(&mutex_);
    while (queue_.empty()) {
      if (WallClock::now() >= deadline) {
        return std::nullopt;
      }
      cv_.WaitUntil(mutex_, deadline);
    }
    DagScheduler::TaskOutcome outcome = std::move(queue_.front());
    queue_.pop_front();
    return outcome;
  }

 private:
  Mutex mutex_{"OutcomeQueue::mutex_"};
  CondVar cv_;
  std::deque<DagScheduler::TaskOutcome> queue_ GUARDED_BY(mutex_);
};

namespace {

// Backoff for progress-free rounds (tasks racing a revocation wave): keeps
// the stage loop off the CPU without adding meaningful latency to the first
// few retries. Doubles from 50 us and caps at 8 doublings (~12.8 ms).
constexpr double kStallBackoffSeconds = 50e-6;
constexpr double kStallBackoffCapSeconds = kStallBackoffSeconds * 256;

WallClock::duration ToClockDuration(double seconds) {
  return std::chrono::duration_cast<WallClock::duration>(WallDuration(seconds));
}

// Enforces the pre-compute part of a fault directive: a hang parks the
// attempt until its cancellation token fires (the cooperative model — a hung
// executor thread is still a thread, it just never finishes its task), and
// an injected failure aborts the attempt immediately. Returns false with
// *status set when the attempt must not proceed to compute.
bool RunFaultPreamble(TaskContext& tc, const TaskFaultDirective& directive, Status* status) {
  if (directive.hang) {
    // Unbounded wait, ended only by cancellation; always returns kUnavailable.
    (void)tc.context().latency().Wait(Layer::kInjectedSlow,
                                      std::numeric_limits<double>::infinity(),
                                      [&tc] { return tc.Cancelled(); });
    *status = Unavailable("task attempt cancelled while hung");
    return false;
  }
  if (!directive.fail.ok()) {
    *status = directive.fail;
    return false;
  }
  return true;
}

// Enforces kSlowNode after the real compute: stretches the attempt's elapsed
// time by (slow_factor - 1), polling cancellation so a speculative winner
// can reap the straggler early. Returns false when cancelled mid-stretch.
bool StretchCompute(TaskContext& tc, const TaskFaultDirective& directive, WallTime t0) {
  if (directive.slow_factor <= 1.0) {
    return true;
  }
  const double elapsed = WallDuration(WallClock::now() - t0).count();
  return tc.context()
      .latency()
      .Wait(Layer::kInjectedSlow, elapsed * (directive.slow_factor - 1.0),
            [&tc] { return tc.Cancelled(); })
      .ok();
}

// A zero-score node still deserves a trickle: total starvation would freeze
// its EWMA (no completions, no samples), making recovery impossible.
// Quarantine — not the weight floor — is the mechanism that benches a node.
constexpr double kMinPickWeight = 0.05;

// Stamps `stamp` with the current steady-clock tick at executor entry.
void StampExecStart(const ExecStartStamp& stamp) {
  stamp->store(WallClock::now().time_since_epoch().count(), std::memory_order_release);
}

// Reads an executor stamp back as a WallTime; nullopt while still queued.
std::optional<WallTime> ReadExecStart(const ExecStartStamp& stamp) {
  const int64_t ticks = stamp->load(std::memory_order_acquire);
  if (ticks == 0) {
    return std::nullopt;
  }
  return WallTime(WallClock::duration(ticks));
}

}  // namespace

size_t SwrrPick(const std::vector<double>& weights, std::vector<double>& credits,
                std::optional<size_t> preferred) {
  double total = 0.0;
  size_t best = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    credits[i] += weights[i];
    total += weights[i];
    if (credits[i] > credits[best]) {
      best = i;
    }
  }
  if (preferred.has_value() && credits[*preferred] >= credits[best] - total) {
    best = *preferred;
  }
  credits[best] -= total;
  return best;
}

std::optional<size_t> LineagePreferredNode(const RddPtr& rdd, int partition,
                                           const std::vector<std::shared_ptr<NodeState>>& nodes) {
  std::deque<std::pair<const Rdd*, int>> queue{{rdd.get(), partition}};
  std::unordered_set<BlockKey, BlockKeyHash> visited{{rdd->id(), partition}};
  while (!queue.empty()) {
    const auto [cur, index] = queue.front();
    queue.pop_front();
    const BlockKey key{cur->id(), index};
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->blocks->Contains(key)) {
        return i;
      }
    }
    if (cur->checkpoint_state() == CheckpointState::kSaved) {
      continue;  // lineage truncated: below here a task restores from the DFS
    }
    for (const Dependency& dep : cur->deps()) {
      const int parent_index = index - dep.partition_offset;
      if (dep.type != DepType::kNarrowOneToOne || dep.parent == nullptr || parent_index < 0 ||
          parent_index >= dep.parent->num_partitions() ||
          !visited.insert({dep.parent->id(), parent_index}).second) {
        continue;
      }
      queue.emplace_back(dep.parent.get(), parent_index);
    }
  }
  return std::nullopt;
}

std::shared_ptr<NodeState> DagScheduler::PickNode(const RddPtr& rdd, int partition,
                                                  NodeId exclude) {
  auto live = ctx_->SchedulableNodeStates();
  if (exclude >= 0) {
    std::erase_if(live, [exclude](const std::shared_ptr<NodeState>& node) {
      return node->info.node_id == exclude;
    });
  }
  if (live.empty()) {
    // Whole cluster revoked or draining (or the only survivor is the node a
    // speculative duplicate must avoid). Parking belongs to the stage loop
    // (which counts it separately from convergence attempts), not here.
    return nullptr;
  }
  // Health-weighted smooth round-robin over the id-sorted schedulable set:
  // every node earns credit proportional to its EWMA health score, the
  // richest node wins and repays the total. At uniform health this is exact
  // round-robin, while a node at score 0.5 draws half the work of its
  // healthy peers — degraded-but-unbenched nodes shed load without the cliff
  // of quarantine. The node caching the task's nearest narrow ancestor takes
  // the pick instead while its credit is within one round of the leader's:
  // unbounded locality would pile a whole stage onto the survivors of a
  // revocation (replacements come back cold), and the credit bound keeps
  // every pick inside the health-weighted shares. Credits live on NodeState
  // (scheduler thread is the only writer, serialized by job_mutex_), so
  // proportions hold across stages.
  const std::optional<size_t> preferred = LineagePreferredNode(rdd, partition, live);
  std::vector<double> weights(live.size());
  std::vector<double> credits(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    weights[i] = std::max(live[i]->health_score.load(std::memory_order_relaxed),
                          kMinPickWeight);
    credits[i] = live[i]->swrr_credit.load(std::memory_order_relaxed);
  }
  const size_t pick = SwrrPick(weights, credits, preferred);
  for (size_t i = 0; i < live.size(); ++i) {
    live[i]->swrr_credit.store(credits[i], std::memory_order_relaxed);
  }
  live[pick]->tasks_picked.fetch_add(1, std::memory_order_relaxed);
  if (pick == preferred) {
    ctx_->counters().tasks_placed_local.fetch_add(1, std::memory_order_relaxed);
  }
  return live[pick];
}

Status DagScheduler::EnsureShuffleDeps(const RddPtr& rdd, int depth) {
  if (depth > kMaxRecoveryDepth) {
    return Internal("stage recursion too deep (cyclic lineage?)");
  }
  for (const auto& shuffle : CollectDirectShuffleDeps(rdd)) {
    FLINT_RETURN_IF_ERROR(RunShuffleStage(shuffle, depth + 1));
  }
  return Status::Ok();
}

Status DagScheduler::RecoverShuffle(int shuffle_id, int depth) {
  std::shared_ptr<ShuffleInfo> shuffle = ctx_->LookupShuffle(shuffle_id);
  if (shuffle == nullptr) {
    return Internal("fetch failure references unknown shuffle " + std::to_string(shuffle_id));
  }
  return RunShuffleStage(shuffle, depth);
}

Status DagScheduler::RunStageLoop(const StageLoopSpec& spec) {
  const SpeculationConfig& spec_cfg = ctx_->config().speculation;
  EngineCounters& counters = ctx_->counters();

  // One launched attempt, keyed by attempt id until its outcome is consumed.
  struct AttemptState {
    int slot = -1;
    std::shared_ptr<NodeState> node;
    WallTime submitted{};
    // Written by the executor the moment the attempt leaves the queue and
    // begins running; 0 while queued. Deadlines and service times prefer
    // this over queue-position inference.
    ExecStartStamp exec_start;
    CancelToken cancel;
    bool speculative = false;
    // The deadline already fired for this attempt (duplicate launched or at
    // least attempted); never fires twice.
    bool deadline_missed = false;
  };
  // Per-slot attempt bookkeeping, persistent across dispatch sweeps.
  struct SlotState {
    int attempts_started = 0;
    int failures = 0;  // budgeted failures (not node deaths, not cancellations)
    int outstanding = 0;
    WallTime next_eligible{};  // retry backoff gate
    bool done = false;
  };
  std::unordered_map<uint64_t, AttemptState> attempts;
  std::unordered_map<int, SlotState> slots;
  uint64_t next_attempt_id = 1;
  // Last successful completion per node (first submission time until then).
  // An attempt's deadline runs from max(its submission, this mark): a node
  // that is steadily draining its queue never looks expired just because the
  // queue is deep, while a slow or hung node indicts everything it holds —
  // without this gate, queue wait on healthy nodes triggers a speculation
  // storm that floods the cluster with duplicates.
  std::unordered_map<NodeId, WallTime> node_progress;

  // Streaming quantiles over winning-attempt service times: completion minus
  // max(submission, the node's previous completion), i.e. the slice of wall
  // clock the task actually occupied its node, not its wait in queue. P50
  // drives the speculation deadline once `quorum` wins have been observed;
  // P95 rides along for telemetry.
  P2Quantile p50(0.5);
  P2Quantile p95(0.95);
  // Node health judges an attempt against the live P50 of its own stage (the
  // estimate that arms deadlines), and not at all before quorum (0): the
  // carried P50 of a lighter stage would indict every node.
  auto stage_p50 = [&p50, &spec_cfg] {
    return static_cast<int>(p50.count()) >= spec_cfg.quorum ? p50.value() : 0.0;
  };
  // Cross-stage carry-over: until the in-stage estimate reaches quorum,
  // deadlines may arm from the previous stage's P50 (carried_p50_), so short
  // stages — fewer tasks than the quorum — still get straggler protection.
  const bool seed_available = spec_cfg.enabled && spec_cfg.seed_from_previous_stage &&
                              carried_count_ >= static_cast<size_t>(spec_cfg.quorum);
  bool seed_counted = false;
  // The fetch-timeout quantiles mirror deadline arming: carried values stand
  // in until the live estimate reaches quorum; with neither, timeouts stay
  // disarmed (published 0) rather than trusting a stale stage's shape.
  ctx_->PublishStageQuantiles(seed_available ? carried_p50_ : 0.0,
                              seed_available ? carried_p95_ : 0.0);

  auto outcomes = std::make_shared<OutcomeQueue>();

  const WallTime stage_start = WallClock::now();
  const bool watchdog_on = spec_cfg.stage_watchdog_seconds > 0.0;
  const WallTime stage_deadline =
      watchdog_on ? stage_start + ToClockDuration(spec_cfg.stage_watchdog_seconds)
                  : WallTime::max();

  // Every exit path cancels whatever is still in flight: losing speculative
  // duplicates, hung attempts, and watchdog-abandoned tasks must all observe
  // their token and release their executor thread.
  auto cancel_outstanding = [&attempts, &counters] {
    for (auto& [id, attempt] : attempts) {
      if (!attempt.cancel->exchange(true, std::memory_order_acq_rel)) {
        counters.tasks_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  // The watchdog's verdict: counted, traced, and named after what the stage
  // was stuck on.
  auto watchdog_expired = [&](const std::string& stuck_on, int slot, NodeId node) {
    counters.stage_watchdog_timeouts.fetch_add(1, std::memory_order_relaxed);
    Tracer::Global().RecordInstant(
        "stage_watchdog_timeout", "scheduler",
        {{"slot", static_cast<double>(slot)}, {"node", static_cast<double>(node)}});
    cancel_outstanding();
    return DeadlineExceeded(std::string(spec.what) + " exceeded its watchdog of " +
                            std::to_string(spec_cfg.stage_watchdog_seconds) + "s; " + stuck_on);
  };

  int stalled_rounds = 0;
  for (;;) {
    if (spec.complete()) {
      cancel_outstanding();
      // Carry this stage's service-time distribution into the next stage's
      // deadline seeding. Only successful stages publish: a failed stage's
      // times are suspect.
      if (p50.count() > 0) {
        carried_p50_ = p50.value();
        carried_p95_ = p95.value();
        carried_count_ = p50.count();
      }
      return Status::Ok();
    }
    if (stalled_rounds > spec.max_stalled_rounds) {
      cancel_outstanding();
      return Internal(std::string(spec.what) + " failed to converge");
    }
    ctx_->FireProbe(EnginePoint::kSchedulerRound);
    if (Status prep = spec.prepare(); !prep.ok()) {
      cancel_outstanding();
      return prep;
    }

    // Dispatch sweep: one fresh attempt per missing slot with none
    // outstanding (slots being speculated already have theirs).
    size_t submitted = 0;
    bool saw_backoff = false;
    WallTime earliest_retry = WallTime::max();
    const WallTime sweep_now = WallClock::now();
    for (int slot : spec.missing()) {
      SlotState& st = slots[slot];
      // A previously finished slot can regress when its output died with a
      // revoked node (shuffle map outputs); clear the win so it recomputes.
      if (st.done) {
        st.done = false;
      }
      if (st.outstanding > 0) {
        continue;
      }
      if (sweep_now < st.next_eligible) {
        saw_backoff = true;
        earliest_retry = std::min(earliest_retry, st.next_eligible);
        continue;
      }
      std::shared_ptr<NodeState> node = spec.pick(slot, /*exclude=*/-1);
      if (node == nullptr) {
        break;  // nothing schedulable; park below if nothing is in flight
      }
      CancelToken cancel = MakeCancelToken();
      auto exec_start = std::make_shared<std::atomic<int64_t>>(0);
      const uint64_t attempt_id = next_attempt_id++;
      if (!spec.submit(slot, node, cancel, attempt_id, st.attempts_started, exec_start,
                       outcomes)) {
        continue;  // pool closed under us; the slot is re-examined next sweep
      }
      counters.tasks_run.fetch_add(1, std::memory_order_relaxed);
      AttemptState attempt;
      attempt.slot = slot;
      attempt.node = node;
      attempt.submitted = WallClock::now();
      attempt.exec_start = std::move(exec_start);
      attempt.cancel = std::move(cancel);
      node_progress.emplace(node->info.node_id, attempt.submitted);
      attempts.emplace(attempt_id, std::move(attempt));
      ++st.outstanding;
      ++st.attempts_started;
      ++submitted;
    }
    counters.stage_rounds.fetch_add(1, std::memory_order_relaxed);

    if (submitted == 0 && attempts.empty()) {
      if (saw_backoff) {
        // Every missing slot is inside its retry backoff window.
        const WallTime now = WallClock::now();
        if (earliest_retry > now) {
          // No cancel check: always completes OK.
          (void)WaitSeconds(std::min(WallDuration(earliest_retry - now).count(), 0.05));
        }
        continue;
      }
      // Every executor pool rejected the sweep's submissions: the whole
      // cluster was revoked (or started draining) between PickNode and
      // Submit. Park until the node manager supplies a replacement — this is
      // an acquisition wait, not a convergence attempt.
      counters.stage_parks.fetch_add(1, std::memory_order_relaxed);
      if (!ctx_->WaitForLiveNode(stage_deadline).ok()) {
        return watchdog_expired("parked with no schedulable node", -1, -1);
      }
      continue;
    }

    // Collect: consume outcomes while enforcing speculation deadlines and
    // the stage watchdog. Leaves the inner loop whenever a slot needs a
    // fresh submission (failure, revocation) or a shuffle must recover.
    bool progress = false;
    bool need_redispatch = false;
    int recovery_shuffle = -1;
    Status fatal;
    while (!attempts.empty() && !need_redispatch && recovery_shuffle < 0 && fatal.ok()) {
      const WallTime now = WallClock::now();
      if (watchdog_on && now >= stage_deadline) {
        // Name the oldest outstanding attempt: with a hang that is the
        // wedged task the operator needs to see.
        int oldest_slot = -1;
        NodeId oldest_node = -1;
        WallTime oldest_time = WallTime::max();
        for (const auto& [id, attempt] : attempts) {
          if (attempt.submitted < oldest_time) {
            oldest_time = attempt.submitted;
            oldest_slot = attempt.slot;
            oldest_node = attempt.node->info.node_id;
          }
        }
        return watchdog_expired("oldest outstanding attempt is task " +
                                    std::to_string(oldest_slot) + " on node " +
                                    std::to_string(oldest_node),
                                oldest_slot, oldest_node);
      }

      WallTime wake = watchdog_on ? stage_deadline : now + ToClockDuration(1.0);
      const bool live_quorum =
          spec_cfg.enabled && static_cast<int>(p50.count()) >= spec_cfg.quorum;
      const bool deadlines_armed = live_quorum || seed_available;
      if (deadlines_armed && !live_quorum && !seed_counted) {
        seed_counted = true;
        counters.stage_quantile_seeded.fetch_add(1, std::memory_order_relaxed);
        Tracer::Global().RecordInstant("stage_deadline_seeded", "scheduler",
                                       {{"carried_p50_seconds", carried_p50_},
                                        {"carried_count", static_cast<double>(carried_count_)}});
      }
      if (deadlines_armed) {
        // The live in-stage P50 takes over as soon as it reaches quorum;
        // before that, the carried estimate stands in.
        const double p50_estimate = live_quorum ? p50.value() : carried_p50_;
        const double deadline_s = std::max(spec_cfg.min_deadline_seconds,
                                           spec_cfg.spec_multiplier * p50_estimate);
        const WallClock::duration deadline_dur = ToClockDuration(deadline_s);
        // An attempt's clock starts when its executor actually dequeued it
        // (the exec_start stamp). Until that stamp lands the attempt is
        // still queued, so fall back to the later of its submission and its
        // node's last completed task (see node_progress above) — queue depth
        // on a healthy node must not read as expiry, while a slow or hung
        // node still indicts everything it holds.
        auto effective_start = [&node_progress](const AttemptState& a) {
          if (const std::optional<WallTime> started = ReadExecStart(a.exec_start)) {
            return *started;
          }
          const auto it = node_progress.find(a.node->info.node_id);
          return it == node_progress.end() ? a.submitted : std::max(a.submitted, it->second);
        };
        // Expired attempts first (ids snapshot: launching a duplicate
        // mutates `attempts`). Ids are assigned monotonically, so sorting
        // restores launch order from the map's hash order and keeps
        // speculation (hence placement, hence recompute interleaving)
        // replayable.
        std::vector<uint64_t> expired;
        for (const auto& [id, attempt] : attempts) {
          if (!attempt.deadline_missed && now >= effective_start(attempt) + deadline_dur) {
            expired.push_back(id);
          }
        }
        std::sort(expired.begin(), expired.end());
        for (uint64_t id : expired) {
          AttemptState& missed = attempts[id];
          missed.deadline_missed = true;
          const int slot = missed.slot;
          const NodeId from_node = missed.node->info.node_id;
          counters.task_deadline_misses.fetch_add(1, std::memory_order_relaxed);
          ctx_->NotifyTaskDeadlineMiss(from_node);
          SlotState& st = slots[slot];
          if (st.done || st.outstanding >= 2) {
            continue;  // already won, or already speculated
          }
          std::shared_ptr<NodeState> other = spec.pick(slot, from_node);
          if (other == nullptr) {
            continue;  // nowhere else to run; the original may yet finish
          }
          CancelToken cancel = MakeCancelToken();
          auto dup_start = std::make_shared<std::atomic<int64_t>>(0);
          const uint64_t dup_id = next_attempt_id++;
          if (!spec.submit(slot, other, cancel, dup_id, st.attempts_started, dup_start,
                           outcomes)) {
            continue;
          }
          counters.tasks_run.fetch_add(1, std::memory_order_relaxed);
          counters.tasks_speculated.fetch_add(1, std::memory_order_relaxed);
          Tracer::Global().RecordInstant(
              "task_speculated", "scheduler",
              {{"slot", static_cast<double>(slot)},
               {"from_node", static_cast<double>(from_node)},
               {"to_node", static_cast<double>(other->info.node_id)},
               {"deadline_seconds", deadline_s}});
          AttemptState dup;
          dup.slot = slot;
          dup.node = std::move(other);
          dup.submitted = WallClock::now();
          dup.exec_start = std::move(dup_start);
          dup.cancel = std::move(cancel);
          dup.speculative = true;
          node_progress.emplace(dup.node->info.node_id, dup.submitted);
          attempts.emplace(dup_id, std::move(dup));
          ++st.outstanding;
          ++st.attempts_started;
        }
        for (const auto& [id, attempt] : attempts) {
          if (!attempt.deadline_missed) {
            wake = std::min(wake, effective_start(attempt) + deadline_dur);
          }
        }
      }

      const WallDuration tick = std::clamp(WallDuration(wake - WallClock::now()),
                                           WallDuration(100e-6), WallDuration(1.0));
      std::optional<TaskOutcome> popped = outcomes->PopWithTimeout(tick);
      if (!popped.has_value()) {
        continue;  // tick expired; rescan deadlines / watchdog
      }
      TaskOutcome outcome = std::move(*popped);
      auto it = attempts.find(outcome.attempt_id);
      if (it == attempts.end()) {
        continue;  // unknown attempt; nothing to account
      }
      AttemptState attempt = std::move(it->second);
      attempts.erase(it);
      SlotState& st = slots[attempt.slot];
      --st.outstanding;
      const WallTime finished = WallClock::now();
      // Service time, not queue-inclusive latency (see the quantile comment).
      // The executor's own stamp is exact; an attempt that somehow finished
      // without stamping falls back to the node-progress inference.
      WallTime started = attempt.submitted;
      if (const std::optional<WallTime> exec_started = ReadExecStart(attempt.exec_start)) {
        started = std::max(started, *exec_started);
        // The stamp can land a hair before `submitted` is recorded (the task
        // may begin before Submit returns); clamp so the sum never regresses.
        counters.task_queue_wait_nanos.fetch_add(
            std::max<int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     *exec_started - attempt.submitted)
                                     .count()),
            std::memory_order_relaxed);
      } else if (const auto pit = node_progress.find(attempt.node->info.node_id);
                 pit != node_progress.end()) {
        started = std::max(started, pit->second);
      }
      const double seconds = WallDuration(finished - started).count();
      const bool was_cancelled = attempt.cancel->load(std::memory_order_acquire);
      const NodeId node_id = attempt.node->info.node_id;

      if (outcome.status.ok()) {
        node_progress[node_id] = finished;
        if (st.done) {
          // Duplicate success: its sibling already won. Computation is
          // deterministic so the results are bit-identical; nothing to
          // reconcile, but the node did finish a task — report it healthy.
          ctx_->NotifyTaskAttemptFinished(node_id, seconds, stage_p50(), true);
          continue;
        }
        st.done = true;
        p50.Add(seconds);
        p95.Add(seconds);
        // Once the in-stage estimate reaches quorum it also drives the
        // shuffle-fetch timeout (TaskContext::FetchTimeoutSeconds).
        if (spec_cfg.enabled && static_cast<int>(p50.count()) >= spec_cfg.quorum) {
          ctx_->PublishStageQuantiles(p50.value(), p95.value());
        }
        ctx_->NotifyTaskAttemptFinished(node_id, seconds, stage_p50(), true);
        if (attempt.speculative) {
          counters.speculative_wins.fetch_add(1, std::memory_order_relaxed);
        }
        // First success wins: reap the slower sibling(s).
        for (auto& [sibling_id, sibling] : attempts) {
          if (sibling.slot == attempt.slot &&
              !sibling.cancel->exchange(true, std::memory_order_acq_rel)) {
            counters.tasks_cancelled.fetch_add(1, std::memory_order_relaxed);
          }
        }
        progress = spec.on_success(std::move(outcome)) || progress;
        continue;
      }

      counters.task_failures.fetch_add(1, std::memory_order_relaxed);
      if (was_cancelled || st.done) {
        continue;  // reaped loser (or stale attempt of a finished slot)
      }
      if (outcome.status.code() == StatusCode::kDataLoss && outcome.failed_shuffle >= 0) {
        // A shuffle input vanished with a revoked node; not this node's
        // fault and not a budget charge.
        recovery_shuffle = outcome.failed_shuffle;
        continue;
      }
      const bool node_died = attempt.node->revoked.load(std::memory_order_acquire) ||
                             attempt.node->draining.load(std::memory_order_acquire);
      if (outcome.status.code() == StatusCode::kUnavailable && node_died) {
        // Died with its node: a free re-dispatch on a survivor. No health
        // penalty — the node is gone, there is nothing left to score.
        need_redispatch = true;
        continue;
      }
      // A genuine attempt failure (flaky node, poisoned input, user-code
      // error): penalize the node, charge the slot's budget, back off.
      ctx_->NotifyTaskAttemptFinished(node_id, seconds, stage_p50(), false);
      ++st.failures;
      if (st.failures >= spec_cfg.max_attempts_per_task) {
        fatal = Status(outcome.status.code(),
                       outcome.status.message() + " (" + std::string(spec.what) + " task " +
                           std::to_string(attempt.slot) + " failed " +
                           std::to_string(st.failures) + " attempt(s))");
        continue;
      }
      counters.task_retries.fetch_add(1, std::memory_order_relaxed);
      const double backoff = BackoffSeconds(st.failures - 1, spec_cfg.retry_backoff_seconds,
                                            spec_cfg.retry_backoff_seconds * 1024);
      st.next_eligible = WallClock::now() + ToClockDuration(backoff);
      need_redispatch = true;
    }

    if (!fatal.ok()) {
      cancel_outstanding();
      return fatal;
    }
    if (recovery_shuffle >= 0) {
      if (Status rec = RecoverShuffle(recovery_shuffle, spec.recovery_depth); !rec.ok()) {
        cancel_outstanding();
        return rec;
      }
      progress = true;  // the producing stage was re-run; not a stall
    }
    if (progress) {
      stalled_rounds = 0;
    } else {
      ++stalled_rounds;
      // No cancel check: always completes OK.
      (void)WaitSeconds(
          BackoffSeconds(stalled_rounds, kStallBackoffSeconds, kStallBackoffCapSeconds));
    }
  }
}

Status DagScheduler::RunShuffleStage(const std::shared_ptr<ShuffleInfo>& shuffle, int depth) {
  if (depth > kMaxRecoveryDepth) {
    return Internal("stage recursion too deep");
  }
  RddPtr map_rdd = shuffle->map_side.lock();
  if (map_rdd == nullptr) {
    return Internal("map-side RDD of shuffle " + std::to_string(shuffle->shuffle_id) +
                    " no longer exists");
  }
  ShuffleManager& shuffles = ctx_->shuffles();

  TraceSpan stage_span("shuffle_stage", "stage");
  stage_span.AddArg("shuffle", shuffle->shuffle_id);
  stage_span.AddArg("maps", shuffle->num_map_partitions);
  stage_span.AddArg("reduces", shuffle->num_reduce_partitions);
  stage_span.AddArg("depth", depth);

  StageLoopSpec spec;
  spec.what = "shuffle stage";
  spec.max_stalled_rounds = 4 * kMaxRecoveryDepth;
  spec.recovery_depth = depth + 1;
  spec.complete = [&shuffles, &shuffle] {
    return shuffles.MissingMaps(shuffle->shuffle_id).empty();
  };
  // The map tasks themselves read lineage; make sure *their* shuffle inputs
  // exist before every dispatch sweep.
  spec.prepare = [this, &map_rdd, depth] { return EnsureShuffleDeps(map_rdd, depth + 1); };
  spec.missing = [this, &shuffles, &shuffle] {
    ctx_->FireProbe(EnginePoint::kBeforeShuffleMapDispatch);
    return shuffles.MissingMaps(shuffle->shuffle_id);
  };
  spec.pick = [this, &map_rdd](int slot, NodeId exclude) {
    return PickNode(map_rdd, slot, exclude);
  };
  spec.submit = [this, &shuffle, &map_rdd](int m, const std::shared_ptr<NodeState>& node,
                                           const CancelToken& cancel, uint64_t attempt_id,
                                           int attempt_number, const ExecStartStamp& exec_start,
                                           const std::shared_ptr<OutcomeQueue>& outcomes) {
    const int shuffle_id = shuffle->shuffle_id;
    return node->pool->Submit([this, node, map_rdd, m, shuffle_id, shuffle,
                               cancel, attempt_id, attempt_number, exec_start, outcomes] {
      StampExecStart(exec_start);
      ctx_->FireProbe(EnginePoint::kShuffleMapTaskRun);
      TraceSpan task_span("shuffle_map_task", "task");
      task_span.AddArg("shuffle", shuffle_id);
      task_span.AddArg("map", m);
      task_span.AddArg("node", node->info.node_id);
      task_span.AddArg("attempt", attempt_number);
      TaskContext tc(ctx_, node, cancel);
      TaskOutcome outcome;
      outcome.attempt_id = attempt_id;
      outcome.index = m;
      TaskRunInfo info;
      info.node = node->info.node_id;
      info.shuffle_id = shuffle_id;
      info.partition = m;
      info.attempt = attempt_number;
      const TaskFaultDirective directive = ctx_->FireTaskProbe(info);
      const WallTime t0 = WallClock::now();
      if (!RunFaultPreamble(tc, directive, &outcome.status)) {
        outcomes->Push(std::move(outcome));
        return;
      }
      Result<std::vector<PartitionPtr>> buckets = tc.ComputeShuffleBuckets(map_rdd, m, *shuffle);
      if (!buckets.ok()) {
        outcome.status = buckets.status();
        outcome.failed_shuffle = tc.failed_shuffle();
        outcomes->Push(std::move(outcome));
        return;
      }
      if (!StretchCompute(tc, directive, t0) || tc.Cancelled()) {
        outcome.status = Unavailable("task attempt cancelled during shuffle write");
        outcomes->Push(std::move(outcome));
        return;
      }
      ctx_->shuffles().RegisterMapOutput(shuffle_id, m, tc.node_id(), std::move(buckets).value());
      ctx_->FireProbe(EnginePoint::kShuffleMapTaskDone);
      outcome.status = Status::Ok();
      outcomes->Push(std::move(outcome));
    });
  };
  // A successful map task registered a previously missing output.
  spec.on_success = [](TaskOutcome&&) { return true; };
  return RunStageLoop(spec);
}

Result<std::vector<PartitionPtr>> DagScheduler::Materialize(const RddPtr& rdd) {
  if (rdd == nullptr) {
    return InvalidArgument("null rdd");
  }
  std::vector<int> all(static_cast<size_t>(rdd->num_partitions()));
  std::iota(all.begin(), all.end(), 0);
  return MaterializePartitions(rdd, all);
}

Result<std::vector<PartitionPtr>> DagScheduler::MaterializePartitions(
    const RddPtr& rdd, const std::vector<int>& partitions) {
  if (rdd == nullptr) {
    return InvalidArgument("null rdd");
  }
  std::unordered_set<int> seen;
  for (int p : partitions) {
    if (p < 0 || p >= rdd->num_partitions()) {
      return InvalidArgument("partition " + std::to_string(p) + " out of range for rdd " +
                             rdd->name());
    }
    if (!seen.insert(p).second) {
      return InvalidArgument("duplicate partition " + std::to_string(p) + " requested for rdd " +
                             rdd->name());
    }
  }
  FLINT_RETURN_IF_ERROR(EnsureShuffleDeps(rdd, 0));

  TraceSpan stage_span("result_stage", "stage");
  stage_span.AddArg("rdd", rdd->id());
  stage_span.AddArg("partitions", static_cast<double>(partitions.size()));

  // Outcome indices are slots into `partitions`, not partition numbers, so
  // the result vector mirrors the request order.
  const size_t n = partitions.size();
  std::vector<PartitionPtr> results(n);
  std::vector<bool> done(n, false);
  size_t remaining = n;

  StageLoopSpec spec;
  spec.what = "result stage";
  spec.max_stalled_rounds = 8 * kMaxRecoveryDepth;
  spec.recovery_depth = 0;
  spec.complete = [&remaining] { return remaining == 0; };
  spec.prepare = [] { return Status::Ok(); };  // deps ensured above; losses recover below
  spec.missing = [&done, n] {
    std::vector<int> missing;
    for (size_t s = 0; s < n; ++s) {
      if (!done[s]) {
        missing.push_back(static_cast<int>(s));
      }
    }
    return missing;
  };
  spec.pick = [this, &rdd, &partitions](int slot, NodeId exclude) {
    return PickNode(rdd, partitions[static_cast<size_t>(slot)], exclude);
  };
  spec.submit = [this, &rdd, &partitions](int slot, const std::shared_ptr<NodeState>& node,
                                          const CancelToken& cancel, uint64_t attempt_id,
                                          int attempt_number, const ExecStartStamp& exec_start,
                                          const std::shared_ptr<OutcomeQueue>& outcomes) {
    const int p = partitions[static_cast<size_t>(slot)];
    return node->pool->Submit([this, node, rdd, slot, p, cancel, attempt_id, attempt_number,
                               exec_start, outcomes] {
      StampExecStart(exec_start);
      TraceSpan task_span("task", "task");
      task_span.AddArg("rdd", rdd->id());
      task_span.AddArg("partition", p);
      task_span.AddArg("node", node->info.node_id);
      task_span.AddArg("attempt", attempt_number);
      TaskContext tc(ctx_, node, cancel);
      TaskOutcome outcome;
      outcome.attempt_id = attempt_id;
      outcome.index = slot;
      TaskRunInfo info;
      info.node = node->info.node_id;
      info.rdd_id = rdd->id();
      info.partition = p;
      info.attempt = attempt_number;
      const TaskFaultDirective directive = ctx_->FireTaskProbe(info);
      const WallTime t0 = WallClock::now();
      if (!RunFaultPreamble(tc, directive, &outcome.status)) {
        outcomes->Push(std::move(outcome));
        return;
      }
      Result<PartitionPtr> data = tc.GetPartition(rdd, p);
      if (data.ok()) {
        if (!StretchCompute(tc, directive, t0)) {
          outcome.status = Unavailable("task attempt cancelled mid-compute");
        } else {
          outcome.status = Status::Ok();
          outcome.data = std::move(data).value();
        }
      } else {
        outcome.status = data.status();
        outcome.failed_shuffle = tc.failed_shuffle();
      }
      outcomes->Push(std::move(outcome));
    });
  };
  spec.on_success = [&results, &done, &remaining](TaskOutcome&& outcome) {
    const size_t idx = static_cast<size_t>(outcome.index);
    if (done[idx]) {
      return false;  // duplicate completion (re-dispatch raced a slow task)
    }
    done[idx] = true;
    results[idx] = std::move(outcome.data);
    --remaining;
    return true;
  };
  FLINT_RETURN_IF_ERROR(RunStageLoop(spec));
  return results;
}

}  // namespace flint
