#include "core/load_distributor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "exp/experiment1.h"
#include "tests/core/reference_evaluator.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_oracle::DenseLoads;
using testing_oracle::LoadMatrix;
using testing_fixtures::TinyCluster;

TransactionalAppSpec TxSpec(AppId id, MHz saturation = 900.0,
                            Megabytes mem = 500.0) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx";
  spec.memory_per_instance = mem;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = saturation;
  return spec;
}

TEST(LoadDistributorTest, SingleJobGetsMaxSpeed) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  LoadDistributor dist(&snap);
  const auto result = dist.Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_NEAR(result.utilities[0], 0.8, 0.01);  // completes at 4 of goal 20
}

TEST(LoadDistributorTest, SpeedCapLeavesCpuIdle) {
  // A 500 MHz-max job on a 1,000 MHz node cannot use the second half.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 500.0, 750.0, 0.0, 4.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 500.0, 1.0);
}

TEST(LoadDistributorTest, EqualJobsShareEqually) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 500.0, 5.0);
  EXPECT_NEAR(result.totals[1], 500.0, 5.0);
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.01);
}

TEST(LoadDistributorTest, MaxMinFavoursTheNeedy) {
  // Same node, same work, but job 2's goal is much tighter: equalizing
  // relative performance gives job 2 more CPU.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 1'000.0, 750.0, 0.0, 8.0, JobStatus::kRunning, 0);
  b.AddJob(2, 2'000.0, 1'000.0, 750.0, 0.0, 2.5, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_GT(result.totals[1], result.totals[0]);
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.02);
  EXPECT_NEAR(result.totals[0] + result.totals[1], 1'000.0, 5.0);
}

TEST(LoadDistributorTest, SaturatedJobYieldsSurplus) {
  // Job 1's goal is so tight that even at its 200 MHz cap it stays the
  // worst-off entity: it fixes at saturation and job 2 takes the surplus.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 400.0, 200.0, 750.0, 0.0, 1.05, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 3.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 200.0, 2.0);
  EXPECT_NEAR(result.totals[1], 800.0, 2.0);
  EXPECT_GT(result.utilities[1], result.utilities[0]);
}

TEST(LoadDistributorTest, JobsOnSeparateNodesIndependent) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 1);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_NEAR(result.totals[1], 1'000.0, 1.0);
  EXPECT_DOUBLE_EQ(result.LoadAt(0, 0), result.totals[0]);
  EXPECT_DOUBLE_EQ(result.LoadAt(1, 1), result.totals[1]);
}

TEST(LoadDistributorTest, UnplacedJobGetsNothing) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);  // queued
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_FALSE(result.placed[1]);
  EXPECT_DOUBLE_EQ(result.totals[1], 0.0);
  EXPECT_DOUBLE_EQ(result.utilities[1], kUtilityFloor);
}

TEST(LoadDistributorTest, TxSharesNodeWithJob) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddTx(TxSpec(10, /*saturation=*/900.0), /*rate=*/400.0, {0});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  // Both positive, node capacity respected.
  EXPECT_GT(result.totals[0], 0.0);
  EXPECT_GT(result.totals[1], 0.0);
  EXPECT_LE(result.totals[0] + result.totals[1], 1'000.0 + 1e-6);
  // Relative performance approximately equalized.
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.05);
}

TEST(LoadDistributorTest, TxSpansMultipleNodes) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddTx(TxSpec(10, /*saturation=*/2'500.0), /*rate=*/1'500.0, {0, 1, 2});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  // Saturation 2,500 < 3,000 total: the app gets its saturation allocation.
  EXPECT_NEAR(result.totals[0], 2'500.0, 5.0);
  // Routed across the three instances within node capacity.
  for (int n = 0; n < 3; ++n) {
    EXPECT_LE(result.LoadAt(0, n), 1'000.0 + 1e-6);
  }
  EXPECT_NEAR(result.LoadAt(0, 0) + result.LoadAt(0, 1) +
                  result.LoadAt(0, 2),
              2'500.0, 5.0);
}

TEST(LoadDistributorTest, QuiescedTxIsSatisfiedWithZero) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddTx(TxSpec(10), /*rate=*/0.0, {0});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_DOUBLE_EQ(result.totals[0], 0.0);
  EXPECT_DOUBLE_EQ(result.utilities[0], 1.0);
}

TEST(LoadDistributorTest, MinSpeedPausesStarvedJob) {
  // Two jobs on one node; job 2 requires at least 800 MHz whenever it runs.
  // Fair sharing would give it ~500, below its minimum, so it is paused.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  auto& j2 =
      b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  j2.min_speed = 800.0;
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_DOUBLE_EQ(result.totals[1], 0.0);
  EXPECT_GT(result.totals[0], 0.0);
}

TEST(LoadDistributorTest, NodeCapacityNeverExceeded) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 0);
  b.AddJob(2, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 0);
  b.AddJob(3, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 1);
  b.AddTx(TxSpec(10, 1'800.0), 900.0, {0, 1});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  const LoadMatrix loads = DenseLoads(result, snap.num_nodes());
  for (int n = 0; n < 2; ++n) {
    EXPECT_LE(loads.NodeLoad(n), 1'000.0 + 1e-5) << "node " << n;
  }
}

TEST(LoadDistributorTest, InfeasiblePlacementRejected) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 1'500.0, 0.0, 5.0);
  b.AddJob(2, 4'000.0, 1'000.0, 1'500.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  PlacementMatrix p(2, 1);
  p.at(0, 0) = 1;
  p.at(1, 0) = 1;  // 3,000 MB on a 2,000 MB node
  EXPECT_THROW(LoadDistributor(&snap).Distribute(p), std::logic_error);
}

TEST(LoadDistributorTest, HopelessJobStillGetsMaxUseful) {
  // Goal long past: the job is the worst-off entity, so max-min gives it
  // everything it can use.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 1.01, JobStatus::kRunning, 0,
           /*done=*/0.0);
  auto& v = b.jobs.back();
  v.goal.completion_goal = 0.5;  // unreachable: min time is 4 s
  v.goal.desired_start = 0.0;
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_LT(result.utilities[0], 0.0);
}

TEST(LoadDistributorTest, BatchLevelReported) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_FALSE(std::isnan(result.batch_level));
  EXPECT_GT(result.batch_level, 0.0);
}

TEST(LoadDistributorTest, QueuedJobsPullCpuFromTx) {
  // The Experiment Three mechanism in miniature: one placed job, several
  // queued ones, and a transactional app. Under the aggregate model the
  // batch entity demands CPU on behalf of the queue, squeezing the tx app
  // below its ceiling; per-job bargaining (the ablation) leaves the tx app
  // at its ceiling because the placed job alone is easily satisfied.
  auto build = [] {
    SnapshotBuilder b(TinyCluster(1));
    b.AddJob(1, 2'000.0, 900.0, 400.0, 0.0, 8.0, JobStatus::kRunning, 0);
    for (int j = 2; j <= 4; ++j) {
      b.AddJob(j, 2'000.0, 900.0, 400.0, 0.0, 8.0);  // queued
    }
    TransactionalAppSpec spec;
    spec.id = 50;
    spec.name = "tx";
    spec.memory_per_instance = 200.0;
    spec.response_time_goal = 1.0;
    spec.demand_per_request = 4.0;
    spec.min_response_time = 0.1;
    spec.saturation_allocation = 800.0;
    b.AddTx(spec, /*rate=*/100.0, {0});
    return b;
  };

  auto b_agg = build();
  const PlacementSnapshot snap_agg = b_agg.Build();
  const auto aggregate =
      LoadDistributor(&snap_agg).Distribute(snap_agg.current_placement());

  auto b_solo = build();
  const PlacementSnapshot snap_solo = b_solo.Build();
  LoadDistributor::Options ablation;
  ablation.batch_aggregate = false;
  const auto per_job = LoadDistributor(&snap_solo, ablation)
                           .Distribute(snap_solo.current_placement());

  const std::size_t tx_entity = 4;  // after the four jobs
  EXPECT_LT(aggregate.totals[tx_entity], per_job.totals[tx_entity])
      << "queued jobs must pull CPU away from the tx app";
  EXPECT_GT(aggregate.totals[0], per_job.totals[0])
      << "the placed job carries the queue's share";
}

TEST(LoadDistributorTest, PerJobModeMatchesAggregateWithoutQueue) {
  // With every job placed and no transactional contention the two modes
  // coincide: everyone runs at max speed.
  for (bool aggregate : {true, false}) {
    SnapshotBuilder b(TinyCluster(2));
    b.AddJob(1, 2'000.0, 400.0, 750.0, 0.0, 6.0, JobStatus::kRunning, 0);
    b.AddJob(2, 2'000.0, 400.0, 750.0, 0.0, 6.0, JobStatus::kRunning, 1);
    const PlacementSnapshot snap = b.Build();
    LoadDistributor::Options opts;
    opts.batch_aggregate = aggregate;
    const auto result =
        LoadDistributor(&snap, opts).Distribute(snap.current_placement());
    EXPECT_NEAR(result.totals[0], 400.0, 1.0) << "aggregate=" << aggregate;
    EXPECT_NEAR(result.totals[1], 400.0, 1.0) << "aggregate=" << aggregate;
  }
}

TEST(LoadDistributorTest, HypotheticalExposedForAggregateMode) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  LoadDistributor with(&snap);
  EXPECT_NE(with.hypothetical(), nullptr);
  LoadDistributor::Options ablation;
  ablation.batch_aggregate = false;
  LoadDistributor without(&snap, ablation);
  EXPECT_EQ(without.hypothetical(), nullptr);
}

/// Experiment One's shape: 25 paper nodes with three running jobs each and
/// a deep queue, every job at 3,900 MHz.
SnapshotBuilder ExperimentOneShape() {
  SnapshotBuilder b(ClusterSpec::Uniform(25, PaperNode()));
  Rng rng(1234);
  for (int j = 0; j < 125; ++j) {
    const bool running = j < 75;
    auto& v = b.AddJob(j + 1, 68'640'000.0, 3'900.0, 4'320.0,
                       rng.Uniform(-40'000.0, 0.0), 2.7,
                       running ? JobStatus::kRunning : JobStatus::kNotStarted,
                       running ? static_cast<NodeId>(j / 3) : kInvalidNode,
                       running ? rng.Uniform(0.0, 60'000'000.0) : 0.0);
    v.place_overhead = 3.6;
  }
  b.cycle = 600.0;
  return b;
}

/// The current placement and, per node, one queued job swapped in for a
/// running one — what the search scores.
std::vector<PlacementMatrix> SwapCandidates(const PlacementSnapshot& snap) {
  std::vector<PlacementMatrix> candidates = {snap.current_placement()};
  for (int n = 0; n < 25; ++n) {
    PlacementMatrix p = snap.current_placement();
    p.at(snap.EntityOfJob(3 * n), n) = 0;
    p.at(snap.EntityOfJob(75 + 2 * n), n) = 1;
    candidates.push_back(p);
  }
  return candidates;
}

TEST(LoadDistributorTest, WarmProbesStayCheapOnExperimentOneShape) {
  const SnapshotBuilder b = ExperimentOneShape();
  const PlacementSnapshot snap = b.Build();
  const std::vector<PlacementMatrix> candidates = SwapCandidates(snap);

  // Every swap keeps the flow network, so one shared scratch would solve a
  // single water-fill. A fresh scratch per candidate makes each of them
  // solve its own.
  const LoadDistributor dist(&snap);
  DistributorScratch::Stats stats;
  for (const PlacementMatrix& p : candidates) {
    DistributorScratch scratch;
    dist.Distribute(p, scratch);
    const DistributorScratch::Stats one = scratch.stats();
    stats.distribute_calls += one.distribute_calls;
    stats.flow_probes += one.flow_probes;
    stats.augmentations += one.augmentations;
    stats.cold_rechecks += one.cold_rechecks;
    stats.fill_memo_hits += one.fill_memo_hits;
  }
  ASSERT_EQ(stats.distribute_calls, candidates.size());
  ASSERT_EQ(stats.fill_memo_hits, 0u);
  ASSERT_GT(stats.flow_probes, 0u);
  const double probes = static_cast<double>(stats.flow_probes);
  EXPECT_LT(static_cast<double>(stats.augmentations) / probes, 5.0)
      << stats.augmentations << " augmentations over " << stats.flow_probes
      << " probes";
  EXPECT_LT(static_cast<double>(stats.cold_rechecks) / probes, 0.05)
      << stats.cold_rechecks << " cold re-checks over " << stats.flow_probes
      << " probes";
}

TEST(LoadDistributorTest, RepeatedNetworksComeFromTheFillMemo) {
  // Through one scratch only the first swap candidate solves a water-fill,
  // and each later one splits only its swapped node's share anew.
  const SnapshotBuilder b = ExperimentOneShape();
  const PlacementSnapshot snap = b.Build();
  const std::vector<PlacementMatrix> candidates = SwapCandidates(snap);

  const LoadDistributor dist(&snap);
  DistributorScratch scratch;
  dist.Distribute(candidates.front(), scratch);
  const DistributorScratch::Stats first = scratch.stats();
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    dist.Distribute(candidates[i], scratch);
  }
  const DistributorScratch::Stats stats = scratch.stats();
  EXPECT_EQ(stats.distribute_calls, candidates.size());
  EXPECT_EQ(stats.fill_memo_hits, candidates.size() - 1);
  EXPECT_EQ(stats.flow_probes, first.flow_probes);
  EXPECT_EQ(stats.split_memo_hits, 24u * (candidates.size() - 1));
}

TEST(LoadDistributorTest, FinalRoutingIsTheColdMaxFlow) {
  // Two transactional apps share two 1,000 MHz nodes and need 2,000 MHz
  // between them. Many routings carry the same totals. The water-fill's
  // warm probes raise both apps together and spread each over both nodes;
  // the final routing is a cold max-flow, which gives the lower entity the
  // lower node first. Taking the routing from the warm flow instead would
  // move these loads.
  SnapshotBuilder b(ClusterSpec::Uniform(2, NodeSpec{1, 1'000.0, 4'000.0}));
  auto add_tx = [&](AppId id, double demand_per_request, MHz saturation,
                    double rate, std::vector<NodeId> nodes) {
    TransactionalAppSpec spec = TxSpec(id, saturation, 300.0);
    spec.demand_per_request = demand_per_request;
    b.AddTx(spec, rate, std::move(nodes));
  };
  add_tx(10, 2.4887185760228023, 1'328.5553937372586, 494.46257320432989,
         {1});
  add_tx(11, 3.2841812742585765, 1'260.9218550367011, 90.776332305868323,
         {0, 1});
  add_tx(12, 2.0406473878808247, 1'200.7994159823202, 220.84630992372547,
         {0, 1});
  b.cycle = 10.0;
  const PlacementSnapshot snap = b.Build();
  const auto result =
      LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_DOUBLE_EQ(result.LoadAt(1, 0), 1'000.0);
  EXPECT_NEAR(result.LoadAt(1, 1), 69.828282029159482, 1e-9);
  EXPECT_DOUBLE_EQ(result.LoadAt(2, 0), 0.0);
  EXPECT_NEAR(result.LoadAt(2, 1), 930.17171797084052, 1e-9);
}

class LoadDistributorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LoadDistributorPropertyTest, InvariantsHoldUnderRandomWorkloads) {
  const auto [num_nodes, num_jobs] = GetParam();
  Rng rng(static_cast<std::uint64_t>(num_nodes * 1'000 + num_jobs));
  SnapshotBuilder b(TinyCluster(num_nodes));
  for (int j = 0; j < num_jobs; ++j) {
    const MHz speed = rng.Uniform(100.0, 1'000.0);
    const Megacycles work = speed * rng.Uniform(2.0, 50.0);
    const auto node = static_cast<NodeId>(
        rng.UniformInt(0, num_nodes - 1));
    b.AddJob(j + 1, work, speed, 100.0, 0.0, rng.Uniform(1.1, 5.0),
             JobStatus::kRunning, node);
  }
  b.now = rng.Uniform(0.0, 10.0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  const LoadMatrix loads = DenseLoads(result, snap.num_nodes());

  // Invariant 1: node capacities respected.
  for (int n = 0; n < num_nodes; ++n) {
    EXPECT_LE(loads.NodeLoad(n), 1'000.0 + 1e-5);
  }
  // Invariant 2: no job exceeds its max speed.
  for (int j = 0; j < num_jobs; ++j) {
    EXPECT_LE(result.totals[static_cast<std::size_t>(j)],
              snap.job(j).max_speed + 1e-5);
    // Invariant 3: totals match the routed loads.
    EXPECT_NEAR(loads.AppAllocation(j),
                result.totals[static_cast<std::size_t>(j)], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, LoadDistributorPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 3, 6, 12)));

}  // namespace
}  // namespace mwp
