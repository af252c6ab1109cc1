#include "core/snapshot.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TransactionalAppSpec TxSpec(AppId id, Megabytes mem = 500.0) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx";
  spec.memory_per_instance = mem;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 10.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 900.0;
  return spec;
}

TEST(SnapshotTest, EntityIndexing) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  b.AddTx(TxSpec(10), 50.0);
  const PlacementSnapshot snap = b.Build();

  EXPECT_EQ(snap.num_jobs(), 2);
  EXPECT_EQ(snap.num_tx(), 1);
  EXPECT_EQ(snap.num_entities(), 3);
  EXPECT_TRUE(snap.IsJobEntity(0));
  EXPECT_TRUE(snap.IsJobEntity(1));
  EXPECT_FALSE(snap.IsJobEntity(2));
  EXPECT_EQ(snap.EntityOfJob(1), 1);
  EXPECT_EQ(snap.EntityOfTx(0), 2);
  EXPECT_EQ(snap.JobOfEntity(1), 1);
  EXPECT_EQ(snap.TxOfEntity(2), 0);
  EXPECT_THROW(snap.JobOfEntity(2), std::logic_error);
  EXPECT_THROW(snap.TxOfEntity(0), std::logic_error);
}

TEST(SnapshotTest, CurrentPlacementFromViews) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 1);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);  // queued
  b.AddTx(TxSpec(10), 50.0, {0, 2});
  const PlacementSnapshot snap = b.Build();

  const PlacementMatrix& p = snap.current_placement();
  EXPECT_EQ(p.at(0, 1), 1);
  EXPECT_EQ(p.InstanceCount(0), 1);
  EXPECT_EQ(p.InstanceCount(1), 0);
  EXPECT_EQ(p.at(2, 0), 1);
  EXPECT_EQ(p.at(2, 2), 1);
}

TEST(SnapshotTest, EntityMemory) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddTx(TxSpec(10, 333.0), 50.0);
  const PlacementSnapshot snap = b.Build();
  EXPECT_DOUBLE_EQ(snap.EntityMemory(0), 750.0);
  EXPECT_DOUBLE_EQ(snap.EntityMemory(1), 333.0);
}

TEST(SnapshotTest, FreeMemoryAccounting) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(2, 1);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 2'000.0);
  p.at(0, 0) = 1;
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 1'250.0);
  p.at(1, 0) = 1;
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 500.0);
}

TEST(SnapshotTest, FeasibilityMemoryLimit) {
  // The §4.3 node hosts at most two 750 MB jobs.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  b.AddJob(3, 4'000.0, 500.0, 750.0, 2.0, 1.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(3, 1);
  p.at(0, 0) = 1;
  p.at(1, 0) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(2, 0) = 1;  // 2,250 MB > 2,000 MB
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FeasibilityJobSingleInstance) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  PlacementMatrix p(1, 2);
  p.at(0, 0) = 1;
  p.at(0, 1) = 1;  // two instances of one job
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FeasibilityTxInstanceRules) {
  SnapshotBuilder b(TinyCluster(3));
  auto spec = TxSpec(10);
  spec.max_instances = 2;
  b.AddTx(spec, 50.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(1, 3);
  p.at(0, 0) = 2;  // two instances on one node
  EXPECT_FALSE(snap.IsFeasible(p));
  p.at(0, 0) = 1;
  p.at(0, 1) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(0, 2) = 1;  // exceeds max_instances
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, CaptureFromLiveObjects) {
  const ClusterSpec cluster = TinyCluster(2);
  JobQueue queue;
  JobProfile profile = JobProfile::SingleStage(4'000.0, 1'000.0, 750.0);
  Job& running = queue.Submit(std::make_unique<Job>(
      1, "r", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));
  queue.Submit(std::make_unique<Job>(2, "q", profile,
                                     JobGoal::FromFactor(1.0, 5.0, 4.0)));
  Job& suspended = queue.Submit(std::make_unique<Job>(
      3, "s", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));
  Job& done = queue.Submit(std::make_unique<Job>(
      4, "d", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));

  running.Place(1, 0.0, 0.0);
  running.SetAllocation(500.0);
  running.AdvanceTo(0.0, 2.0);
  suspended.Place(0, 0.0, 0.0);
  suspended.SetAllocation(100.0);
  suspended.Suspend(1.0);
  done.Place(0, 0.0, 0.0);
  done.SetAllocation(1'000.0);
  done.AdvanceTo(0.0, 10.0);
  ASSERT_TRUE(done.completed());

  const VmCostModel costs = VmCostModel::PaperMeasured();
  const PlacementSnapshot snap =
      PlacementSnapshot::Capture(cluster, 2.0, 1.0, queue, costs);

  // Completed jobs are excluded; order follows submission.
  ASSERT_EQ(snap.num_jobs(), 3);
  EXPECT_EQ(snap.job(0).id, 1);
  EXPECT_EQ(snap.job(0).status, JobStatus::kRunning);
  EXPECT_EQ(snap.job(0).current_node, 1);
  EXPECT_DOUBLE_EQ(snap.job(0).work_done, 1'000.0);
  EXPECT_DOUBLE_EQ(snap.job(0).place_overhead, 0.0);

  EXPECT_EQ(snap.job(1).id, 2);
  EXPECT_DOUBLE_EQ(snap.job(1).place_overhead, costs.BootCost());

  EXPECT_EQ(snap.job(2).id, 3);
  EXPECT_EQ(snap.job(2).status, JobStatus::kSuspended);
  EXPECT_DOUBLE_EQ(snap.job(2).place_overhead, costs.ResumeCost(750.0));

  EXPECT_EQ(snap.current_placement().at(0, 1), 1);
  EXPECT_EQ(snap.current_placement().InstanceCount(2), 0);
}

TEST(SnapshotTest, CaptureWithTxInputs) {
  const ClusterSpec cluster = TinyCluster(2);
  JobQueue queue;
  TransactionalApp app{TxSpec(77)};
  const PlacementSnapshot snap = PlacementSnapshot::Capture(
      cluster, 0.0, 1.0, queue, VmCostModel::Free(),
      {{&app, 123.0, {0, 1}}});
  ASSERT_EQ(snap.num_tx(), 1);
  EXPECT_EQ(snap.tx(0).id, 77);
  EXPECT_DOUBLE_EQ(snap.tx(0).arrival_rate, 123.0);
  EXPECT_EQ(snap.current_placement().at(0, 0), 1);
  EXPECT_EQ(snap.current_placement().at(0, 1), 1);
}

TEST(SnapshotTest, CapturesNodeHealthAtConstruction) {
  SnapshotBuilder b(TinyCluster(3));
  b.cluster.SetNodeOffline(1);
  b.cluster.SetNodeDegraded(2, 0.5);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();

  EXPECT_TRUE(snap.NodeOnline(0));
  EXPECT_FALSE(snap.NodeOnline(1));
  EXPECT_TRUE(snap.NodeOnline(2));
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(0), 1'000.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(1), 0.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(2), 500.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableMemory(1), 0.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableMemory(2), 2'000.0);
  EXPECT_EQ(snap.NumOnlineNodes(), 2);

  // The view is frozen: later health changes do not leak in.
  b.cluster.SetNodeOnline(1);
  EXPECT_FALSE(snap.NodeOnline(1));
}

TEST(SnapshotTest, FeasibilityRejectsOfflineNode) {
  SnapshotBuilder b(TinyCluster(2));
  b.cluster.SetNodeOffline(1);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(1, 2);
  p.at(0, 0) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(0, 0) = 0;
  p.at(0, 1) = 1;
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FreeMemoryZeroOnOfflineNode) {
  SnapshotBuilder b(TinyCluster(2));
  b.cluster.SetNodeOffline(0);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  const PlacementMatrix p(1, 2);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 0.0);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 1), 2'000.0);
}

/// IsFeasible's rules checked one node and one entity at a time, through
/// FreeMemory — the reference for the single-pass implementation.
bool FeasibleByReference(const PlacementSnapshot& snap,
                         const PlacementMatrix& p) {
  for (int n = 0; n < snap.num_nodes(); ++n) {
    if (!snap.NodeOnline(n)) {
      for (int e = 0; e < snap.num_entities(); ++e) {
        if (p.at(e, n) > 0) return false;
      }
      continue;
    }
    if (snap.FreeMemory(p, n) < -kEpsilon) return false;
  }
  for (int j = 0; j < snap.num_jobs(); ++j) {
    if (p.InstanceCount(snap.EntityOfJob(j)) > 1) return false;
  }
  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (p.at(entity, n) > 1) return false;
    }
    const int cap = snap.tx(w).max_instances;
    if (cap > 0 && p.InstanceCount(entity) > cap) return false;
  }
  return true;
}

TEST(SnapshotTest, FeasibilityMatchesPerNodeReference) {
  // Random matrices with counts from -1 to 2 over offline, degraded and
  // healthy nodes. Memory sizes are multiples of 250 MB, so many candidates
  // fill a node exactly.
  Rng rng(2024);
  int feasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SnapshotBuilder b(TinyCluster(static_cast<int>(rng.UniformInt(1, 4))));
    for (NodeId n = 1; n < b.cluster.num_nodes(); ++n) {
      if (rng.Uniform01() < 0.25) b.cluster.SetNodeOffline(n);
    }
    const int jobs = static_cast<int>(rng.UniformInt(0, 5));
    for (int j = 0; j < jobs; ++j) {
      b.AddJob(j + 1, 4'000.0, 1'000.0, 250.0 * rng.UniformInt(1, 4), 0.0,
               5.0);
    }
    const int tx = static_cast<int>(rng.UniformInt(0, 2));
    for (int w = 0; w < tx; ++w) {
      b.AddTx(TxSpec(100 + w, 250.0 * rng.UniformInt(1, 4)), 10.0)
          .max_instances = static_cast<int>(rng.UniformInt(0, 2));
    }
    const PlacementSnapshot snap = b.Build();
    PlacementMatrix p(snap.num_entities(), snap.num_nodes());
    for (int e = 0; e < snap.num_entities(); ++e) {
      for (int n = 0; n < snap.num_nodes(); ++n) {
        const double r = rng.Uniform01();
        p.at(e, n) = r < 0.6 ? 0 : r < 0.9 ? 1 : r < 0.95 ? 2 : -1;
      }
    }
    const bool want = FeasibleByReference(snap, p);
    EXPECT_EQ(snap.IsFeasible(p), want) << "trial " << trial << "\n"
                                        << p.ToString();
    feasible += want ? 1 : 0;
  }
  // Both verdicts occur often enough to mean something.
  EXPECT_GT(feasible, 40);
  EXPECT_LT(feasible, 360);
}

}  // namespace
}  // namespace mwp
