#include "src/sim/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace flint {

McResult SimulateCanonicalJob(const CanonicalJob& job, const McConfig& config) {
  Rng rng(config.seed);
  const double delta = job.delta_hours();
  const double mttf = config.mttf_hours;
  const double m = static_cast<double>(std::max(1, config.num_markets));
  const double tau = config.forced_tau_hours > 0.0 ? config.forced_tau_hours
                                                   : OptimalCheckpointInterval(delta, mttf);
  // Checkpointing slows useful progress by delta every tau of work.
  const double work_rate =
      config.checkpointing && std::isfinite(tau) ? 1.0 / (1.0 + delta / tau) : 1.0;

  RunningStats factor_stats;
  RunningStats revocation_stats;
  std::vector<double> factors;
  factors.reserve(static_cast<size_t>(config.trials));
  int truncated = 0;

  for (int trial = 0; trial < config.trials; ++trial) {
    double elapsed = 0.0;
    double done = 0.0;             // useful work completed (hours of T)
    double done_at_ckpt = 0.0;     // durable progress
    double next_ckpt = config.checkpointing ? std::min(tau, job.base_hours) : job.base_hours * 2;
    int revocations = 0;

    double next_failure = (std::isfinite(mttf) && mttf > 0.0) ? rng.Exponential(mttf)
                                                              : std::numeric_limits<double>::infinity();
    // Safety valve: with recompute-only and tiny MTTFs the job may never
    // finish; cap at 200x base time.
    const double horizon = 200.0 * job.base_hours;
    while (done < job.base_hours && elapsed < horizon) {
      // Time until the job would finish or hit the next checkpoint.
      const double target_work = config.checkpointing
                                     ? std::min(job.base_hours, done_at_ckpt + next_ckpt)
                                     : job.base_hours;
      const double work_needed = std::max(0.0, target_work - done);
      const double t_work = work_needed / work_rate;
      if (elapsed + t_work <= next_failure) {
        elapsed += t_work;
        done = target_work;
        if (config.checkpointing && done < job.base_hours) {
          done_at_ckpt = done;  // checkpoint completes
        }
        continue;
      }
      // Revocation strikes mid-interval.
      const double t_avail = next_failure - elapsed;
      elapsed = next_failure;
      done += t_avail * work_rate;
      ++revocations;
      // With checkpointing the redo is bounded by the interval and restarts
      // from the DFS; without it, lost partitions recompute through the full
      // lineage from origin data, which is slower than the original pass
      // (recompute_multiplier).
      const double lost_base = config.checkpointing
                                   ? (done - done_at_ckpt)
                                   : done * job.recompute_multiplier;
      done -= lost_base / m;  // only 1/m of the cluster (and its work) is lost
      done = std::max(done, config.checkpointing ? done_at_ckpt : 0.0);
      elapsed += job.rd_hours;  // replacement acquisition
      next_failure = elapsed + ((std::isfinite(mttf) && mttf > 0.0)
                                    ? rng.Exponential(mttf)
                                    : std::numeric_limits<double>::infinity());
    }
    revocation_stats.Add(static_cast<double>(revocations));
    if (done < job.base_hours) {
      // Hit the safety horizon without finishing. Folding `elapsed /
      // base_hours` into the stats would record the trial as "completed in
      // 200x", deflating mean_factor exactly in the regimes where it should
      // explode; count it separately instead.
      ++truncated;
      continue;
    }
    const double factor = elapsed / job.base_hours;
    factor_stats.Add(factor);
    factors.push_back(factor);
  }

  McResult result;
  result.mean_runtime_hours = factor_stats.mean() * job.base_hours;
  result.mean_factor = factor_stats.mean();
  result.factor_stddev = factor_stats.stddev();
  result.p95_factor = Percentile(factors, 95.0);
  result.mean_revocations = revocation_stats.mean();
  result.truncated_trials = truncated;
  result.completed_trials = config.trials - truncated;
  return result;
}

}  // namespace flint
