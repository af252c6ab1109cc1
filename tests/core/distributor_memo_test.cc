// The load distributor's memo tables (the water-fill keyed on the flow
// network, the per-node job split keyed on node, share and jobs) must be
// invisible in its results: Distribute through one scratch that has served
// many candidates returns the same bits as Distribute on a fresh scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hypothetical_rpf.h"
#include "core/job_rpf.h"
#include "core/load_distributor.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectSameBits(const DistributionResult& got,
                    const DistributionResult& want) {
  ASSERT_EQ(got.loads.size(), want.loads.size());
  for (std::size_t i = 0; i < want.loads.size(); ++i) {
    const InstanceLoad& g = got.loads[i];
    const InstanceLoad& w = want.loads[i];
    EXPECT_EQ(g.entity, w.entity) << "load entry " << i;
    EXPECT_EQ(g.node, w.node) << "load entry " << i;
    EXPECT_EQ(Bits(g.load), Bits(w.load))
        << "load of entity " << w.entity << " on node " << w.node << ": "
        << g.load << " vs " << w.load;
  }
  ASSERT_EQ(got.totals.size(), want.totals.size());
  ASSERT_EQ(got.utilities.size(), want.utilities.size());
  for (std::size_t e = 0; e < want.totals.size(); ++e) {
    EXPECT_EQ(Bits(got.totals[e]), Bits(want.totals[e])) << "total " << e;
    EXPECT_EQ(Bits(got.utilities[e]), Bits(want.utilities[e]))
        << "utility " << e;
  }
  EXPECT_EQ(got.placed, want.placed);
  EXPECT_EQ(Bits(got.batch_level), Bits(want.batch_level));
}

/// Distributes every candidate through `shared` and through a fresh
/// scratch, and requires identical bits.
void ExpectMemoTransparent(const LoadDistributor& dist,
                           const std::vector<PlacementMatrix>& candidates,
                           DistributorScratch& shared) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const DistributionResult got = dist.Distribute(candidates[i], shared);
    DistributorScratch fresh;
    ExpectSameBits(got, dist.Distribute(candidates[i], fresh));
  }
}

/// A random cluster with offline and degraded nodes, jobs (running, queued,
/// on time and far behind, some with a minimum speed) and transactional
/// apps sharing nodes with them. Node speeds, job speeds and transactional
/// demands all sit within a small factor of `scale` MHz.
SnapshotBuilder RandomScenario(Rng& rng, double scale) {
  const int num_nodes = static_cast<int>(rng.UniformInt(2, 5));
  std::vector<NodeSpec> specs;
  for (int n = 0; n < num_nodes; ++n) {
    specs.push_back(NodeSpec{static_cast<int>(rng.UniformInt(1, 4)),
                             scale * rng.Uniform(0.5, 2.0), 16'000.0});
  }
  SnapshotBuilder b{ClusterSpec(std::move(specs))};
  std::vector<NodeId> online;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const double health = rng.Uniform01();
    if (n > 0 && health < 0.2) {
      b.cluster.SetNodeOffline(n);
      continue;
    }
    if (health < 0.45) b.cluster.SetNodeDegraded(n, rng.Uniform(0.3, 0.9));
    online.push_back(n);
  }
  b.now = rng.Uniform(0.0, 400.0);
  b.cycle = 60.0;

  // Two speeds per scenario, so that swapping jobs often leaves the flow
  // network unchanged.
  const double speeds[] = {scale * rng.Uniform(0.2, 1.0),
                           scale * rng.Uniform(0.2, 1.0)};
  const int num_jobs = static_cast<int>(rng.UniformInt(2, 10));
  for (int j = 0; j < num_jobs; ++j) {
    const MHz speed = speeds[rng.UniformInt(0, 1)];
    const Megacycles work = speed * rng.Uniform(20.0, 400.0);
    const bool running = j == 0 || rng.Uniform01() < 0.7;
    const bool late = rng.Uniform01() < 0.2;
    const NodeId node =
        online[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(online.size()) - 1))];
    JobView& v = b.AddJob(
        j + 1, work, speed, 1'000.0, late ? -1e5 : rng.Uniform(-300.0, 0.0),
        rng.Uniform(1.05, 4.0),
        running ? JobStatus::kRunning : JobStatus::kNotStarted,
        running ? node : kInvalidNode,
        running ? work * rng.Uniform(0.0, 0.9) : 0.0);
    if (rng.Uniform01() < 0.3) v.min_speed = speed * rng.Uniform(0.0, 0.3);
  }

  const int num_tx = static_cast<int>(rng.UniformInt(0, 2));
  for (int w = 0; w < num_tx; ++w) {
    TransactionalAppSpec spec;
    spec.id = 100 + w;
    spec.name = "tx";
    spec.memory_per_instance = 500.0;
    spec.response_time_goal = 1.0;
    spec.demand_per_request = scale * rng.Uniform(0.001, 0.02);
    spec.min_response_time = 0.1;
    spec.saturation_allocation = scale * rng.Uniform(0.3, 3.0);
    std::vector<NodeId> nodes;
    for (NodeId n : online) {
      if (nodes.empty() || rng.Uniform01() < 0.5) nodes.push_back(n);
    }
    // Some apps carry no load and are trivially satisfied.
    const double rate = rng.Uniform01() < 0.15 ? 0.0 : rng.Uniform(10.0, 200.0);
    b.AddTx(spec, rate, std::move(nodes));
  }
  return b;
}

/// The current placement plus feasible variations of it: exact repeats,
/// moved, dropped and swapped jobs, and toggled transactional instances.
/// Swaps of equal-speed jobs give different placements with one network.
std::vector<PlacementMatrix> RandomCandidates(const PlacementSnapshot& snap,
                                              Rng& rng) {
  std::vector<NodeId> online;
  for (NodeId n = 0; n < snap.num_nodes(); ++n) {
    if (snap.NodeOnline(n)) online.push_back(n);
  }
  auto pick = [&](int count) {
    return static_cast<int>(rng.UniformInt(0, count - 1));
  };
  std::vector<PlacementMatrix> out = {snap.current_placement()};
  while (out.size() < 24) {
    PlacementMatrix p = out[static_cast<std::size_t>(
        pick(static_cast<int>(out.size())))];
    switch (rng.UniformInt(0, 3)) {
      case 0:
        break;  // an exact repeat
      case 1: {
        const int e = snap.EntityOfJob(pick(snap.num_jobs()));
        for (int n = 0; n < snap.num_nodes(); ++n) p.at(e, n) = 0;
        if (rng.Uniform01() < 0.8) {
          const auto slot = pick(static_cast<int>(online.size()));
          p.at(e, online[static_cast<std::size_t>(slot)]) = 1;
        }
        break;
      }
      case 2: {
        const int a = snap.EntityOfJob(pick(snap.num_jobs()));
        const int c = snap.EntityOfJob(pick(snap.num_jobs()));
        for (int n = 0; n < snap.num_nodes(); ++n) {
          std::swap(p.at(a, n), p.at(c, n));
        }
        break;
      }
      default: {
        if (snap.num_tx() == 0) continue;
        const int e = snap.EntityOfTx(pick(snap.num_tx()));
        const auto slot = pick(static_cast<int>(online.size()));
        const NodeId n = online[static_cast<std::size_t>(slot)];
        p.at(e, n) = 1 - p.at(e, n);
        break;
      }
    }
    if (snap.IsFeasible(p)) out.push_back(std::move(p));
  }
  return out;
}

TEST(DistributorMemoTest, SharedScratchMatchesFreshScratchOnRandomSnapshots) {
  // Twelve scenarios whose demand scales step from 1e-3 to 1e6 MHz, each
  // distributed in the paper's batch-aggregate mode and the per-job
  // ablation.
  constexpr int kScenarios = 12;
  for (const bool aggregate : {true, false}) {
    std::uint64_t fill_hits = 0;
    std::uint64_t split_hits = 0;
    for (int s = 0; s < kScenarios; ++s) {
      const double scale = std::pow(10.0, -3.0 + 9.0 * s / (kScenarios - 1));
      SCOPED_TRACE("aggregate " + std::to_string(aggregate) + " scenario " +
                   std::to_string(s) + " scale " + std::to_string(scale));
      Rng rng(static_cast<std::uint64_t>(7'919 * (s + 1)));
      const SnapshotBuilder b = RandomScenario(rng, scale);
      const PlacementSnapshot snap = b.Build();
      ASSERT_TRUE(snap.IsFeasible(snap.current_placement()));
      const std::vector<PlacementMatrix> candidates =
          RandomCandidates(snap, rng);

      LoadDistributor::Options options;
      options.batch_aggregate = aggregate;
      const LoadDistributor dist(&snap, options);
      DistributorScratch shared;
      ExpectMemoTransparent(dist, candidates, shared);
      const DistributorScratch::Stats stats = shared.stats();
      EXPECT_EQ(stats.distribute_calls, candidates.size());
      fill_hits += stats.fill_memo_hits;
      split_hits += stats.split_memo_hits;
    }
    EXPECT_GT(fill_hits, 0u) << "aggregate " << aggregate;
    // Only the batch aggregate splits node shares among jobs.
    if (aggregate) {
      EXPECT_GT(split_hits, 0u);
    } else {
      EXPECT_EQ(split_hits, 0u);
    }
  }
}

TEST(DistributorMemoTest, UnroutableFloorMatchesFreshScratch) {
  // Three jobs far past their goals share a 1,000 MHz node: each demands
  // its full 600 MHz even at the utility floor, so the floor does not fit
  // and the water-fill grants the best-effort max-flow shares. A fourth
  // job of the same speed waits in the queue; swapping it in keeps the
  // aggregate's network. A fifth runs alone on node 1.
  SnapshotBuilder b(TinyCluster(2));
  for (int j = 0; j < 3; ++j) {
    b.AddJob(j + 1, 600.0 * (40.0 + j), 600.0, 100.0, 0.0, 1.1,
             JobStatus::kRunning, 0, 0.0);
  }
  b.AddJob(4, 600.0 * 45.0, 600.0, 100.0, 0.0, 1.1);
  b.AddJob(5, 600.0 * 45.0, 600.0, 100.0, 0.0, 1.1, JobStatus::kRunning, 1,
           0.0);
  b.now = 1e5;
  const PlacementSnapshot snap = b.Build();

  std::vector<PlacementMatrix> candidates = {snap.current_placement()};
  PlacementMatrix swapped = snap.current_placement();
  swapped.at(0, 0) = 0;
  swapped.at(3, 0) = 1;
  candidates.push_back(swapped);
  candidates.push_back(snap.current_placement());
  candidates.push_back(swapped);

  // The floor is unroutable in both modes: node 0's jobs alone demand more
  // than it has, and the aggregate demands more than both nodes have.
  MHz floor_demand = 0.0;
  for (int j = 0; j < 3; ++j) {
    const JobView& jv = snap.job(j);
    floor_demand += JobCompletionRpf(jv.profile, jv.goal, jv.work_done,
                                     JobExecStart(snap, jv, 0))
                        .AllocationFor(kUtilityFloor);
  }
  ASSERT_GT(floor_demand, snap.NodeAvailableCpu(0));

  for (const bool aggregate : {true, false}) {
    SCOPED_TRACE("aggregate " + std::to_string(aggregate));
    LoadDistributor::Options options;
    options.batch_aggregate = aggregate;
    const LoadDistributor dist(&snap, options);
    if (aggregate) {
      ASSERT_GT(BatchAggregateRpf(dist.hypothetical())
                    .AllocationFor(kUtilityFloor),
                snap.NodeAvailableCpu(0) + snap.NodeAvailableCpu(1));
    }
    DistributorScratch shared;
    ExpectMemoTransparent(dist, candidates, shared);
    // The swap keeps the network in the aggregate mode only: per job, the
    // swapped-in job is a different fill entity.
    EXPECT_EQ(shared.stats().fill_memo_hits, aggregate ? 3u : 2u);
  }
}

TEST(DistributorMemoTest, ScratchOwnerIsNotAnAddress) {
  // Two snapshots with the same topology — same nodes, same job speeds and
  // placement — but different job progress, so the same flow network fills
  // differently. Their distributors live in turn in one std::optional, at
  // one address, and share a scratch: the second must not be served the
  // first one's memo.
  auto build = [](Megacycles done) {
    SnapshotBuilder b(TinyCluster(1));
    b.AddJob(1, 40'000.0, 800.0, 100.0, 0.0, 1.5, JobStatus::kRunning, 0,
             done);
    b.AddJob(2, 40'000.0, 800.0, 100.0, 0.0, 3.0, JobStatus::kRunning, 0,
             0.0);
    b.now = 10.0;
    return b;
  };
  const SnapshotBuilder builder_a = build(0.0);
  const SnapshotBuilder builder_b = build(30'000.0);
  const PlacementSnapshot snap_a = builder_a.Build();
  const PlacementSnapshot snap_b = builder_b.Build();

  DistributorScratch shared;
  std::optional<LoadDistributor> dist;
  dist.emplace(&snap_a);
  const void* address = &*dist;
  const DistributionResult a = dist->Distribute(snap_a.current_placement(),
                                                shared);
  dist.reset();
  dist.emplace(&snap_b);
  ASSERT_EQ(&*dist, address);
  const DistributionResult b =
      dist->Distribute(snap_b.current_placement(), shared);

  DistributorScratch fresh;
  const DistributionResult want =
      LoadDistributor(&snap_b).Distribute(snap_b.current_placement(), fresh);
  ExpectSameBits(b, want);
  EXPECT_EQ(shared.stats().fill_memo_hits, 0u);
  // The two snapshots really do distribute differently, so a stale memo
  // would have shown.
  EXPECT_NE(Bits(a.totals[0]), Bits(want.totals[0]));
}

}  // namespace
}  // namespace mwp
