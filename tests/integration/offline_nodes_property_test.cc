// Property tests: node health must gate every placement path. Whatever the
// mix of offline/degraded nodes, placed jobs and queued work, neither the
// optimizer's placements nor the load distributor's CPU assignments may
// touch an offline node, and no node may be driven past its available
// (health-scaled) capacity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/load_distributor.h"
#include "core/placement_optimizer.h"
#include "core/snapshot.h"
#include "web/transactional_app.h"

namespace mwp {
namespace {

struct Scenario {
  ClusterSpec cluster;
  std::vector<JobProfile> profiles;
  std::unique_ptr<TransactionalApp> tx;
  std::vector<JobView> jobs;
  std::vector<TxView> tx_views;

  PlacementSnapshot Snapshot() const {
    return PlacementSnapshot(&cluster, 0.0, 600.0, jobs, tx_views);
  }
};

Scenario RandomScenario(Rng& rng) {
  Scenario s;
  const int nodes = static_cast<int>(rng.UniformInt(3, 7));
  s.cluster = ClusterSpec::Uniform(nodes, NodeSpec{2, 1'000.0, 4'000.0});

  // Random health overlay, keeping at least two nodes online.
  std::vector<NodeId> online;
  for (NodeId n = 0; n < nodes; ++n) {
    const double roll = rng.Uniform01();
    if (roll < 0.35) {
      s.cluster.SetNodeOffline(n);
    } else if (roll < 0.5) {
      s.cluster.SetNodeDegraded(n, rng.Uniform(0.3, 0.9));
      online.push_back(n);
    } else {
      online.push_back(n);
    }
  }
  while (online.size() < 2) {
    const NodeId n = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
    if (!s.cluster.node_online(n)) {
      s.cluster.SetNodeOnline(n);
      online.push_back(n);
    }
  }

  // Jobs: some already placed (on online nodes, within memory), some queued.
  const int num_jobs = static_cast<int>(rng.UniformInt(2, 8));
  s.profiles.reserve(static_cast<std::size_t>(num_jobs));
  std::vector<int> instances_on(static_cast<std::size_t>(nodes), 0);
  for (int j = 0; j < num_jobs; ++j) {
    s.profiles.push_back(JobProfile::SingleStage(
        rng.Uniform(500'000.0, 3'000'000.0), rng.Uniform(800.0, 2'000.0),
        rng.Uniform(400.0, 1'000.0)));
  }
  for (int j = 0; j < num_jobs; ++j) {
    JobView v;
    v.id = 100 + j;
    v.profile = &s.profiles[static_cast<std::size_t>(j)];
    v.goal = JobGoal::FromFactor(rng.Uniform(-2'000.0, 0.0), 3.0,
                                 s.profiles[static_cast<std::size_t>(j)]
                                     .min_execution_time());
    v.memory = s.profiles[static_cast<std::size_t>(j)].stage(0).memory;
    v.max_speed = s.profiles[static_cast<std::size_t>(j)].stage(0).max_speed;
    if (rng.Uniform01() < 0.6) {
      // Host on a random online node with room (3 x 1,000 MB fits in 4 GB).
      const NodeId host =
          online[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<int>(online.size()) - 1))];
      if (instances_on[static_cast<std::size_t>(host)] < 3) {
        v.status = JobStatus::kRunning;
        v.current_node = host;
        v.work_done = rng.Uniform(0.0, 400'000.0);
        ++instances_on[static_cast<std::size_t>(host)];
      } else {
        v.status = JobStatus::kNotStarted;
        v.place_overhead = 3.6;
      }
    } else {
      v.status = JobStatus::kNotStarted;
      v.place_overhead = 3.6;
    }
    s.jobs.push_back(v);
  }

  // One transactional app with instances on a prefix of the online nodes.
  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 2'000.0;
  s.tx = std::make_unique<TransactionalApp>(spec);
  TxView tv;
  tv.id = spec.id;
  tv.app = s.tx.get();
  tv.arrival_rate = rng.Uniform(100.0, 1'200.0);
  tv.memory = spec.memory_per_instance;
  tv.max_instances = spec.max_instances;
  const int tx_instances =
      static_cast<int>(rng.UniformInt(1, static_cast<int>(online.size())));
  for (int k = 0; k < tx_instances; ++k) {
    tv.current_nodes.push_back(online[static_cast<std::size_t>(k)]);
  }
  s.tx_views.push_back(tv);
  return s;
}

class OfflineNodesProperty : public ::testing::TestWithParam<int> {};

TEST_P(OfflineNodesProperty, NoPathTouchesAnOfflineNode) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7'919);
  for (int trial = 0; trial < 10; ++trial) {
    const Scenario s = RandomScenario(rng);
    const PlacementSnapshot snap = s.Snapshot();
    ASSERT_TRUE(snap.IsFeasible(snap.current_placement()))
        << "seed " << GetParam() << " trial " << trial;

    PlacementOptimizer optimizer(&snap);
    const auto result = optimizer.Optimize();
    EXPECT_TRUE(snap.IsFeasible(result.placement));
    for (NodeId n = 0; n < s.cluster.num_nodes(); ++n) {
      if (s.cluster.node_online(n)) continue;
      for (int e = 0; e < snap.num_entities(); ++e) {
        EXPECT_EQ(result.placement.at(e, n), 0)
            << "entity " << e << " placed on offline node " << n << " (seed "
            << GetParam() << " trial " << trial << ")";
      }
    }

    const LoadDistributor distributor(&snap);
    const DistributionResult dist = distributor.Distribute(result.placement);
    for (NodeId n = 0; n < s.cluster.num_nodes(); ++n) {
      MHz node_load = 0.0;
      for (int e = 0; e < snap.num_entities(); ++e) {
        const MHz load = dist.LoadAt(e, n);
        EXPECT_GE(load, 0.0);
        if (!s.cluster.node_online(n)) {
          EXPECT_EQ(load, 0.0)
              << "entity " << e << " given CPU on offline node " << n
              << " (seed " << GetParam() << " trial " << trial << ")";
        }
        node_load += load;
      }
      // Degraded nodes expose scaled capacity; offline nodes expose zero.
      EXPECT_LE(node_load, s.cluster.available_cpu(n) + 1e-6)
          << "node " << n << " over available capacity (seed " << GetParam()
          << " trial " << trial << ")";
    }
  }
}

TEST_P(OfflineNodesProperty, SnapshotFreezesHealthAtCaptureTime) {
  // Mutating the live cluster after capture must not change what the
  // optimizer reasons about: the snapshot's availability view is frozen.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104'729);
  Scenario s = RandomScenario(rng);
  const PlacementSnapshot snap = s.Snapshot();
  std::vector<bool> frozen;
  for (NodeId n = 0; n < s.cluster.num_nodes(); ++n) {
    frozen.push_back(snap.NodeOnline(n));
  }
  for (NodeId n = 0; n < s.cluster.num_nodes(); ++n) {
    if (s.cluster.node_online(n)) s.cluster.SetNodeOffline(n);
  }
  for (NodeId n = 0; n < s.cluster.num_nodes(); ++n) {
    EXPECT_EQ(snap.NodeOnline(n), frozen[static_cast<std::size_t>(n)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineNodesProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mwp
