// Transient-server selection policies (paper Sec 3.1.2, 3.2.2):
//
//   Flint-batch:       one homogeneous market minimizing E[C_k] = E[T_k]*p_k.
//   Flint-interactive: a mix of mutually-uncorrelated markets, grown greedily
//                      while the variance of running time decreases and the
//                      expected cost stays below on-demand.
//   SpotFleet-cheapest / least-volatile: application-agnostic baselines that
//                      pick by price or by MTTF alone.
//   Restoration:       replace revoked servers from the next-best market,
//                      excluding the revoked market and any market whose
//                      instantaneous price is far above its recent average.
//   Bidding:           bid the on-demand price (Sec 3.2.2 "Bidding Policy");
//                      the multiple is configurable for the Fig 11b sweep.
//
// All statistics come from the Marketplace over a recent window (the node
// manager "monitors the real-time spot price ... and maintains each market's
// historical average spot price and revocation rate over a recent time
// window, e.g., the past week").

#ifndef SRC_SELECT_SELECTION_H_
#define SRC_SELECT_SELECTION_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/market/marketplace.h"
#include "src/obs/metrics.h"

namespace flint {

enum class SelectionPolicyKind {
  kFlintBatch,
  kFlintInteractive,
  kSpotFleetCheapest,
  kSpotFleetLeastVolatile,
  kOnDemand,
};

struct SelectionConfig {
  double bid_multiple = 1.0;  // bid = multiple * on-demand price
  SimDuration history_window = Hours(24.0 * 7);
  // Instantaneous-risk filter: skip markets whose current price is more than
  // this fraction above the recent average.
  double price_threshold = 0.10;
  // Candidate set L construction for the interactive policy.
  size_t max_candidate_set = 10;
  double correlation_threshold = 0.4;
  int max_markets_in_mix = 8;
};

// Application profile the cost model needs, in model hours.
struct JobProfile {
  double delta_hours = Minutes(2);  // time to checkpoint the frontier
  double rd_hours = Minutes(2);     // replacement-server acquisition delay
};

struct MarketEvaluation {
  MarketId id = kOnDemandMarket;
  double mttf_hours = 0.0;
  double avg_price = 0.0;
  double expected_factor = 1.0;    // E[T]/T from Eq. 1
  double expected_unit_cost = 0.0; // factor * avg price / link (Eq. 2 per unit T)
  double link_throughput = 1.0;    // observed link EWMA folded into the cost
};

struct MixEvaluation {
  std::vector<MarketId> markets;
  double aggregate_mttf_hours = 0.0;
  double expected_factor = 1.0;     // Eq. 4
  double expected_unit_cost = 0.0;
  double runtime_variance = 0.0;    // per unit running time
};

class ServerSelector {
 public:
  ServerSelector(const Marketplace* marketplace, SelectionConfig config)
      : marketplace_(marketplace), config_(config) {}

  const SelectionConfig& config() const { return config_; }
  double BidFor(MarketId id) const;

  // Folds one observed link-throughput sample (observed bytes/s over the
  // modelled capacity, clamped to (0, 1]) into `id`'s EWMA. The node manager
  // reports these from link-classified fetch samples, so a market whose
  // nodes keep serving shuffle data through sick NICs looks expensive to
  // EvaluateMarkets even when its price and MTTF are pristine.
  void RecordObservedThroughput(MarketId id, double ratio);
  // Current link EWMA for `id`; 1.0 when no sample has been observed.
  double ObservedThroughput(MarketId id) const;

  // Evaluates every spot market (excluding `exclude` and currently spiking /
  // unavailable ones) plus the on-demand pool, sorted by expected unit cost.
  std::vector<MarketEvaluation> EvaluateMarkets(
      SimTime now, const JobProfile& job,
      const std::unordered_set<MarketId>& exclude = {}) const;

  // Flint-batch: the single market with minimum expected cost (may be
  // on-demand if every spot market is worse).
  Result<MarketEvaluation> SelectBatch(SimTime now, const JobProfile& job,
                                       const std::unordered_set<MarketId>& exclude = {}) const;

  // Flint-interactive: variance-reducing market mix.
  Result<MixEvaluation> SelectInteractive(SimTime now, const JobProfile& job,
                                          const std::unordered_set<MarketId>& exclude = {}) const;

  // Baselines.
  Result<MarketEvaluation> SelectCheapest(SimTime now, const JobProfile& job,
                                          const std::unordered_set<MarketId>& exclude = {}) const;
  Result<MarketEvaluation> SelectLeastVolatile(
      SimTime now, const JobProfile& job,
      const std::unordered_set<MarketId>& exclude = {}) const;

  // Restoration: next-best market under `policy`, never the excluded ones.
  Result<MarketEvaluation> SelectReplacement(
      SelectionPolicyKind policy, SimTime now, const JobProfile& job,
      const std::unordered_set<MarketId>& exclude) const;

  // Greedy mutually-uncorrelated candidate set L (Sec 3.2.2).
  std::vector<MarketId> UncorrelatedSet(size_t max_size) const;

  // Evaluates a specific mix of markets (Eq. 3 + Eq. 4 + variance).
  MixEvaluation EvaluateMix(const std::vector<MarketId>& markets, SimTime now,
                            const JobProfile& job) const;

 private:
  MarketEvaluation Evaluate(MarketId id, SimTime now, const JobProfile& job) const;
  bool Admissible(MarketId id, SimTime now) const;

  const Marketplace* marketplace_;
  SelectionConfig config_;
  // Per-market observed link-throughput EWMA. Mutable state on an otherwise
  // read-only evaluator; leaf lock (never held while calling out).
  mutable Mutex link_mutex_{"ServerSelector::link_mutex_"};
  std::unordered_map<MarketId, double> link_ewma_ GUARDED_BY(link_mutex_);

  MetricSet metrics_;
  // Market evaluations whose rank cost came out non-finite.
  std::atomic<uint64_t>& degenerate_evaluations_ =
      metrics_.AddCounter("flint_select_degenerate_evaluations");
};

}  // namespace flint

#endif  // SRC_SELECT_SELECTION_H_
