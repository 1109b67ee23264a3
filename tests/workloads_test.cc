// Correctness tests for the four paper workloads, including equivalence of
// results with and without mid-run revocations — the core promise of
// lineage-based recomputation.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/inject/fault_injector.h"
#include "src/workloads/als.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/tpch.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;

// --- PageRank ---

PageRankParams SmallPageRank() {
  PageRankParams p;
  p.num_vertices = 300;
  p.edges_per_vertex = 6;
  p.partitions = 4;
  p.iterations = 3;
  return p;
}

TEST(PageRankTest, RanksArePositiveAndDeterministic) {
  EngineHarness h1;
  EngineHarness h2;
  auto r1 = RunPageRank(h1.ctx(), SmallPageRank());
  auto r2 = RunPageRank(h2.ctx(), SmallPageRank());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r1->rank_sum, 0.0);
  ASSERT_EQ(r1->top.size(), r2->top.size());
  for (size_t i = 0; i < r1->top.size(); ++i) {
    EXPECT_EQ(r1->top[i].first, r2->top[i].first);
    EXPECT_DOUBLE_EQ(r1->top[i].second, r2->top[i].second);
  }
}

TEST(PageRankTest, PowerLawGraphConcentratesRankOnLowIds) {
  EngineHarness h;
  auto r = RunPageRank(h.ctx(), SmallPageRank(), 10);
  ASSERT_TRUE(r.ok());
  // The generator skews in-edges toward low vertex ids, so the top-ranked
  // vertices should be low-numbered.
  int low_id_hits = 0;
  for (const auto& [v, rank] : r->top) {
    if (v < 100) {
      ++low_id_hits;
    }
  }
  EXPECT_GE(low_id_hits, 7);
}

TEST(PageRankTest, SurvivesRevocationsWithIdenticalResult) {
  EngineHarness h_ref;
  auto ref = RunPageRank(h_ref.ctx(), SmallPageRank());
  ASSERT_TRUE(ref.ok());

  EngineHarness h;
  std::thread chaos([&h] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    h.RevokeNodes(2);
    h.AddNode();
    h.AddNode();
  });
  auto r = RunPageRank(h.ctx(), SmallPageRank());
  chaos.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->rank_sum, ref->rank_sum, 1e-9);
  ASSERT_EQ(r->top.size(), ref->top.size());
  for (size_t i = 0; i < r->top.size(); ++i) {
    EXPECT_EQ(r->top[i].first, ref->top[i].first);
  }
}

// The plan, pinned: `links` (GroupByKey) and `ranks` (MapValues over
// ReduceByKey) are co-partitioned, so each iteration's Join is narrow and
// the iteration registers exactly one shuffle, its ReduceByKey. A regression
// that re-shuffles the cached adjacency lists every iteration fails here.
TEST(PageRankTest, EachIterationRegistersOneShuffle) {
  auto shuffles_after = [](int iterations) {
    EngineHarness h;
    PageRankParams p = SmallPageRank();
    p.iterations = iterations;
    EXPECT_TRUE(RunPageRank(h.ctx(), p).ok());
    return h.ctx().shuffles().NumShuffles();
  };
  const size_t two = shuffles_after(2);
  const size_t three = shuffles_after(3);
  EXPECT_EQ(three - two, 1u);
  EXPECT_EQ(two, 3u);  // links' GroupByKey + one ReduceByKey per iteration
}

// A hard whole-cluster revocation in the middle of iteration 1's map stage
// (map tasks 0-3 build `links`, 4-7 run iteration 0, 8-11 iteration 1) wipes
// the cached links, ranks and every shuffle output. The narrow join
// partitions then recompute from lineage on the replacements, and the ranks
// must match a clean run bit for bit.
TEST(PageRankTest, RevokeAllStormRecomputesNarrowJoinBitIdentically) {
  EngineHarness h_ref;
  auto ref = RunPageRank(h_ref.ctx(), SmallPageRank());
  ASSERT_TRUE(ref.ok());

  EngineHarness h;
  FaultPlan plan;
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/9,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  h.ctx().SetProbe(&injector);
  auto r = RunPageRank(h.ctx(), SmallPageRank());
  h.ctx().SetProbe(nullptr);
  injector.Drain();
  h.ctx().DrainExecutors();

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(injector.AllEventsFired());
  EXPECT_GT(h.ctx().counters().partitions_recomputed.load(), 0u);
  EXPECT_EQ(r->rank_sum, ref->rank_sum);
  EXPECT_EQ(r->top, ref->top);
}

// --- KMeans ---

KMeansParams SmallKMeans() {
  KMeansParams p;
  p.num_points = 2000;
  p.k = 4;
  p.partitions = 4;
  p.iterations = 4;
  return p;
}

TEST(KMeansTest, InertiaDecreasesAcrossIterations) {
  EngineHarness h;
  KMeansParams p1 = SmallKMeans();
  p1.iterations = 1;
  KMeansParams p5 = SmallKMeans();
  p5.iterations = 5;
  auto r1 = RunKMeans(h.ctx(), p1);
  EngineHarness h2;
  auto r5 = RunKMeans(h2.ctx(), p5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r5.ok());
  EXPECT_LE(r5->inertia, r1->inertia * 1.0001);
}

TEST(KMeansTest, CentroidCountMatchesK) {
  EngineHarness h;
  auto r = RunKMeans(h.ctx(), SmallKMeans());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->centroids.size(), 4u);
  EXPECT_GT(r->inertia, 0.0);
}

TEST(KMeansTest, DeterministicAcrossRuns) {
  EngineHarness h1;
  EngineHarness h2;
  auto r1 = RunKMeans(h1.ctx(), SmallKMeans());
  auto r2 = RunKMeans(h2.ctx(), SmallKMeans());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->inertia, r2->inertia);
}

// A hard whole-cluster revocation in the middle of iteration 1's map stage
// (map tasks 0-3 run iteration 0, 4-7 iteration 1) wipes the cached points.
// The replacements come back cold: the points are regenerated from lineage
// wherever the map tasks land, later iterations prefer those new caches, and
// the clustering must match a clean run bit for bit.
TEST(KMeansTest, RevokeAllStormKeepsResultBitIdentical) {
  EngineHarness h_ref;
  auto ref = RunKMeans(h_ref.ctx(), SmallKMeans());
  ASSERT_TRUE(ref.ok());

  EngineHarness h;
  FaultPlan plan;
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/5,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  h.ctx().SetProbe(&injector);
  auto r = RunKMeans(h.ctx(), SmallKMeans());
  h.ctx().SetProbe(nullptr);
  injector.Drain();
  h.ctx().DrainExecutors();

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(injector.AllEventsFired());
  EXPECT_GT(h.ctx().counters().partitions_recomputed.load(), 0u);
  EXPECT_EQ(r->inertia, ref->inertia);
  EXPECT_EQ(r->centroids, ref->centroids);
}

// --- ALS ---

AlsParams SmallAls() {
  AlsParams p;
  p.num_users = 80;
  p.num_items = 40;
  p.ratings_per_user = 10;
  p.rank = 4;
  p.iterations = 3;
  p.partitions = 4;
  return p;
}

TEST(AlsTest, RecoversLowRankStructure) {
  EngineHarness h;
  auto r = RunAls(h.ctx(), SmallAls());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Data is low-rank + noise(0.02); ALS should fit to a small fraction of
  // the rating scale (ratings are dot products of unit-ish factors, ~O(1)).
  EXPECT_LT(r->rmse, 0.15);
  EXPECT_GT(r->rmse, 0.0);
}

TEST(AlsTest, MoreIterationsDoNotHurt) {
  EngineHarness h1;
  EngineHarness h2;
  AlsParams p1 = SmallAls();
  p1.iterations = 1;
  AlsParams p3 = SmallAls();
  p3.iterations = 3;
  auto r1 = RunAls(h1.ctx(), p1);
  auto r3 = RunAls(h2.ctx(), p3);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_LE(r3->rmse, r1->rmse * 1.05);
}

// --- TPC-H ---

TpchParams SmallTpch() {
  TpchParams p;
  p.num_customers = 100;
  p.num_orders = 500;
  p.max_lines_per_order = 4;
  p.partitions = 4;
  return p;
}

TEST(TpchTest, LoadMaterializesTables) {
  EngineHarness h;
  auto db = TpchDatabase::Load(h.ctx(), SmallTpch());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT(db->num_lineitems(), 500u);
}

TEST(TpchTest, Q1MatchesDriverSideReference) {
  EngineHarness h;
  auto db = TpchDatabase::Load(h.ctx(), SmallTpch());
  ASSERT_TRUE(db.ok());
  const int cutoff = kTpchMaxDate - 90;
  auto q1 = db->RunQ1(cutoff);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();

  // Reference from the raw rows.
  auto lines = db->lineitem().Collect();
  ASSERT_TRUE(lines.ok());
  std::map<int, Q1Row> expect;
  for (const auto& l : *lines) {
    if (l.ship_date > cutoff) {
      continue;
    }
    Q1Row& agg = expect[l.return_flag * 2 + l.line_status];
    agg.return_flag = l.return_flag;
    agg.line_status = l.line_status;
    agg.sum_qty += l.quantity;
    agg.sum_base_price += l.extended_price;
    agg.sum_disc_price += l.extended_price * (1.0 - l.discount);
    agg.sum_charge += l.extended_price * (1.0 - l.discount) * (1.0 + l.tax);
    agg.count += 1;
  }
  ASSERT_EQ(q1->size(), expect.size());
  size_t i = 0;
  for (const auto& [key, ref] : expect) {
    EXPECT_EQ((*q1)[i].count, ref.count);
    EXPECT_NEAR((*q1)[i].sum_qty, ref.sum_qty, 1e-6);
    EXPECT_NEAR((*q1)[i].sum_disc_price, ref.sum_disc_price, 1e-4);
    ++i;
  }
}

TEST(TpchTest, Q3ReturnsDescendingRevenue) {
  EngineHarness h;
  auto db = TpchDatabase::Load(h.ctx(), SmallTpch());
  ASSERT_TRUE(db.ok());
  auto q3 = db->RunQ3(/*segment=*/1, /*date=*/kTpchMaxDate / 2, /*top_n=*/5);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  for (size_t i = 1; i < q3->size(); ++i) {
    EXPECT_GE((*q3)[i - 1].revenue, (*q3)[i].revenue);
  }
}

TEST(TpchTest, Q6MatchesDriverSideReference) {
  EngineHarness h;
  auto db = TpchDatabase::Load(h.ctx(), SmallTpch());
  ASSERT_TRUE(db.ok());
  auto q6 = db->RunQ6(0, 365, 0.05, 24.0);
  ASSERT_TRUE(q6.ok());
  auto lines = db->lineitem().Collect();
  ASSERT_TRUE(lines.ok());
  double expect = 0.0;
  for (const auto& l : *lines) {
    if (l.ship_date >= 0 && l.ship_date < 365 && l.discount >= 0.039 && l.discount <= 0.061 &&
        l.quantity < 24.0) {
      expect += l.extended_price * l.discount;
    }
  }
  EXPECT_NEAR(*q6, expect, 1e-6 * std::max(1.0, expect));
}

TEST(TpchTest, QueriesSurviveRevocationWithSameAnswer) {
  EngineHarness h;
  auto db = TpchDatabase::Load(h.ctx(), SmallTpch());
  ASSERT_TRUE(db.ok());
  auto before = db->RunQ1();
  ASSERT_TRUE(before.ok());
  h.RevokeNodes(2);
  h.AddNode();
  h.AddNode();
  auto after = db->RunQ1();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].count, (*after)[i].count);
    EXPECT_NEAR((*before)[i].sum_charge, (*after)[i].sum_charge, 1e-6);
  }
}

}  // namespace
}  // namespace flint
