// Property tests: the search's sparse path — a SparsePlacement patched by a
// PlacementMove, feasibility checked on the nodes the move touches, the
// distributor and evaluator reading the sparse form, the change list diffed
// over sparse node lists — gives exactly what the dense oracle
// (tests/core/reference_evaluator) computes from the candidate's matrix:
// the same IsFeasible verdict, a bit-identical DistributionResult and
// PlacementEvaluation, and the same change list in the same order. Moves
// come in every shape the optimizer makes: a wish, a peel-off plus a wish,
// a migration, and both bootstraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/load_distributor.h"
#include "tests/core/reference_evaluator.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_oracle::DenseLoads;
using testing_oracle::ReferenceDiffPlacements;
using testing_oracle::ReferenceDistribute;
using testing_oracle::ReferenceEvaluate;
using testing_oracle::ReferenceIsFeasible;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> Bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(Bits(x));
  return out;
}

PlacementMatrix RandomMatrix(Rng& rng, int apps, int nodes) {
  PlacementMatrix p(apps, nodes);
  for (int m = 0; m < apps; ++m) {
    for (int n = 0; n < nodes; ++n) {
      const double r = rng.Uniform01();
      p.at(m, n) = r < 0.6 ? 0 : r < 0.85 ? 1 : r < 0.95 ? 2 : -1;
    }
  }
  return p;
}

TEST(SparsePlacementTest, MirrorsTheMatrixUnderPatches) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const int apps = static_cast<int>(rng.UniformInt(1, 7));
    const int nodes = static_cast<int>(rng.UniformInt(1, 5));
    PlacementMatrix dense = RandomMatrix(rng, apps, nodes);
    SparsePlacement sparse(dense);
    const SparsePlacement original = sparse;
    ASSERT_EQ(sparse.ToMatrix(), dense);

    PlacementMove move;
    for (int k = 0; k < 4; ++k) {
      const int e = static_cast<int>(rng.UniformInt(0, apps - 1));
      const int n = static_cast<int>(rng.UniformInt(0, nodes - 1));
      if (rng.Uniform01() < 0.5) {
        move.Remove(e, n);
      } else {
        move.Add(e, n);
      }
    }
    sparse.Apply(move);
    move.ApplyTo(dense);
    EXPECT_EQ(sparse.ToMatrix(), dense) << "trial " << trial;
    EXPECT_EQ(sparse, SparsePlacement(dense)) << "trial " << trial;
    for (int e = 0; e < apps; ++e) {
      EXPECT_EQ(sparse.InstanceCount(e), dense.InstanceCount(e));
      EXPECT_EQ(sparse.FirstNode(e), testing_oracle::FirstNodeOf(dense, e));
      for (int n = 0; n < nodes; ++n) {
        EXPECT_EQ(sparse.Count(e, n), dense.at(e, n));
      }
    }
    sparse.Revert(move);
    EXPECT_EQ(sparse, original) << "trial " << trial;
  }
}

TEST(SparsePlacementTest, DiffMatchesCellByCellDiff) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    const int apps = static_cast<int>(rng.UniformInt(1, 7));
    const int nodes = static_cast<int>(rng.UniformInt(1, 5));
    const PlacementMatrix from = RandomMatrix(rng, apps, nodes);
    const PlacementMatrix to = RandomMatrix(rng, apps, nodes);
    std::vector<bool> suspend(static_cast<std::size_t>(apps));
    std::vector<bool> resume(static_cast<std::size_t>(apps));
    for (int m = 0; m < apps; ++m) {
      suspend[static_cast<std::size_t>(m)] = rng.Uniform01() < 0.5;
      resume[static_cast<std::size_t>(m)] = rng.Uniform01() < 0.5;
    }
    EXPECT_EQ(DiffPlacements(SparsePlacement(from), SparsePlacement(to),
                             suspend, resume),
              ReferenceDiffPlacements(from, to, suspend, resume))
        << "trial " << trial;
  }
}

/// A random snapshot over offline, degraded and healthy nodes: jobs in
/// random states, up to two transactional apps (some idle, some capped),
/// random pins and separations. The current placement fits in memory.
struct RandomCase {
  SnapshotBuilder builder;
  PlacementConstraints constraints;
};

RandomCase MakeRandomCase(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(1, 5));
  RandomCase c{SnapshotBuilder(
                   ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0})),
               {}};
  SnapshotBuilder& b = c.builder;
  for (NodeId n = 0; n < nodes; ++n) {
    const double r = rng.Uniform01();
    if (r < 0.15) {
      b.cluster.SetNodeOffline(n);
    } else if (r < 0.35) {
      b.cluster.SetNodeDegraded(n, rng.Uniform(0.3, 0.9));
    }
  }
  b.now = rng.Uniform(0.0, 10.0);
  b.cycle = rng.Uniform(0.5, 2.0);
  std::vector<Megabytes> free_mem(static_cast<std::size_t>(nodes), 2'000.0);
  auto pick_node = [&](Megabytes need) -> NodeId {
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (b.cluster.node_online(n) &&
          free_mem[static_cast<std::size_t>(n)] >= need) {
        return n;
      }
    }
    return kInvalidNode;
  };

  const int num_jobs = static_cast<int>(rng.UniformInt(0, 8));
  for (int j = 0; j < num_jobs; ++j) {
    const Megacycles work = rng.Uniform(500.0, 8'000.0);
    const Megabytes memory = 250.0 * static_cast<double>(rng.UniformInt(1, 4));
    JobStatus status = JobStatus::kNotStarted;
    NodeId node = kInvalidNode;
    Megacycles done = 0.0;
    const double roll = rng.Uniform01();
    if (roll < 0.5) {
      node = pick_node(memory);
      if (node != kInvalidNode) {
        status = JobStatus::kRunning;
        done = rng.Uniform(0.0, 0.8 * work);
        free_mem[static_cast<std::size_t>(node)] -= memory;
      }
    } else if (roll < 0.65) {
      status = JobStatus::kSuspended;
      done = rng.Uniform(0.0, 0.8 * work);
    }
    JobView& v = b.AddJob(j + 1, work, rng.Uniform(200.0, 1'000.0), memory,
                          rng.Uniform(0.0, b.now), rng.Uniform(1.5, 6.0),
                          status, node, done);
    v.place_overhead = rng.Uniform(0.0, 3.0);
    v.migrate_overhead = rng.Uniform(0.0, 3.0);
  }

  const int num_tx = static_cast<int>(rng.UniformInt(0, 2));
  for (int w = 0; w < num_tx; ++w) {
    TransactionalAppSpec spec;
    spec.id = 100 + w;
    spec.name = "tx";
    spec.memory_per_instance = 250.0 * static_cast<double>(rng.UniformInt(1, 3));
    spec.response_time_goal = rng.Uniform(0.5, 2.0);
    spec.demand_per_request = rng.Uniform(5.0, 30.0);
    spec.min_response_time = 0.05;
    spec.saturation_allocation = rng.Uniform(400.0, 1'200.0);
    spec.max_instances = static_cast<int>(rng.UniformInt(0, 2));
    std::vector<NodeId> on;
    if (rng.Uniform01() < 0.7) {
      const NodeId n = pick_node(spec.memory_per_instance);
      if (n != kInvalidNode) {
        on.push_back(n);
        free_mem[static_cast<std::size_t>(n)] -= spec.memory_per_instance;
      }
    }
    const double rate = rng.Uniform01() < 0.2 ? 0.0 : rng.Uniform(1.0, 25.0);
    b.AddTx(spec, rate, std::move(on));
  }

  std::vector<AppId> ids;
  for (const JobView& v : b.jobs) ids.push_back(v.id);
  for (const TxView& t : b.tx_views) ids.push_back(t.id);
  for (const AppId id : ids) {
    if (rng.Uniform01() < 0.2) {
      std::vector<NodeId> allowed;
      for (NodeId n = 0; n < nodes; ++n) {
        if (rng.Uniform01() < 0.6) allowed.push_back(n);
      }
      if (!allowed.empty()) c.constraints.PinTo(id, std::move(allowed));
    }
  }
  if (ids.size() >= 2 && rng.Uniform01() < 0.5) {
    const auto a = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
    const auto d = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
    if (a != d) c.constraints.Separate(ids[a], ids[d]);
  }
  return c;
}

/// A random placement that passes the dense feasibility oracle.
PlacementMatrix RandomFeasibleBase(const PlacementSnapshot& snap, Rng& rng) {
  PlacementMatrix p(snap.num_entities(), snap.num_nodes());
  for (int e = 0; e < snap.num_entities(); ++e) {
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (rng.Uniform01() >= 0.35) continue;
      p.at(e, n) += 1;
      if (!ReferenceIsFeasible(snap, p)) p.at(e, n) -= 1;
    }
  }
  return p;
}

enum class MoveKind { kWish, kPeelWish, kMigration, kTxBootstrap,
                      kBatchBootstrap };

const char* Name(MoveKind kind) {
  switch (kind) {
    case MoveKind::kWish: return "wish";
    case MoveKind::kPeelWish: return "peel-off + wish";
    case MoveKind::kMigration: return "migration";
    case MoveKind::kTxBootstrap: return "tx bootstrap";
    case MoveKind::kBatchBootstrap: return "batch bootstrap";
  }
  return "?";
}

/// A random move of `kind` from `base`; false when the base offers none.
bool RandomMove(const PlacementSnapshot& snap, const SparsePlacement& base,
                MoveKind kind, Rng& rng, PlacementMove& move) {
  move.Clear();
  const int nodes = snap.num_nodes();
  const auto any = [&](int hi) {
    return static_cast<int>(rng.UniformInt(0, hi - 1));
  };
  switch (kind) {
    case MoveKind::kWish:
    case MoveKind::kPeelWish: {
      if (snap.num_entities() == 0) return false;
      const int node = any(nodes);
      if (kind == MoveKind::kPeelWish) {
        std::vector<int> residents;
        for (const SparsePlacement::Cell& c : base.Residents(node)) {
          for (int k = 0; k < c.count; ++k) residents.push_back(c.index);
        }
        if (residents.empty()) return false;
        const int peel = 1 + any(static_cast<int>(residents.size()));
        for (int r = 0; r < peel; ++r) move.Remove(residents[r], node);
      }
      move.Add(any(snap.num_entities()), node);
      return true;
    }
    case MoveKind::kMigration: {
      std::vector<int> placed;
      for (int j = 0; j < snap.num_jobs(); ++j) {
        if (base.FirstNode(j) != kInvalidNode) placed.push_back(j);
      }
      if (placed.empty() || nodes < 2) return false;
      const int job = placed[static_cast<std::size_t>(
          any(static_cast<int>(placed.size())))];
      const int from = base.FirstNode(job);
      const int to = (from + 1 + any(nodes - 1)) % nodes;
      move.Remove(job, from);
      move.Add(job, to);
      return true;
    }
    case MoveKind::kTxBootstrap: {
      if (snap.num_tx() == 0) return false;
      const int entity = snap.EntityOfTx(any(snap.num_tx()));
      for (int n = 0; n < nodes; ++n) {
        if (base.Count(entity, n) == 0 && rng.Uniform01() < 0.8) {
          move.Add(entity, n);
        }
      }
      return !move.additions.empty();
    }
    case MoveKind::kBatchBootstrap: {
      for (int j = 0; j < snap.num_jobs(); ++j) {
        if (base.InstanceCount(j) == 0 && rng.Uniform01() < 0.7) {
          move.Add(j, any(nodes));
        }
      }
      return !move.additions.empty();
    }
  }
  return false;
}

void ExpectSameDistribution(const DistributionResult& got,
                            const DistributionResult& want, int num_nodes,
                            const std::string& where) {
  EXPECT_EQ(Bits(got.totals), Bits(want.totals)) << where;
  EXPECT_EQ(Bits(got.utilities), Bits(want.utilities)) << where;
  EXPECT_EQ(got.placed, want.placed) << where;
  EXPECT_EQ(Bits(got.batch_level), Bits(want.batch_level)) << where;
  ASSERT_EQ(got.loads.size(), want.loads.size()) << where;
  for (std::size_t i = 0; i < want.loads.size(); ++i) {
    EXPECT_EQ(got.loads[i].entity, want.loads[i].entity) << where;
    EXPECT_EQ(got.loads[i].node, want.loads[i].node) << where;
    EXPECT_EQ(Bits(got.loads[i].load), Bits(want.loads[i].load)) << where;
  }
  EXPECT_EQ(DenseLoads(got, num_nodes), DenseLoads(want, num_nodes)) << where;
}

void ExpectSameEvaluation(const PlacementEvaluation& got,
                          const PlacementEvaluation& want, int num_nodes,
                          const std::string& where) {
  ExpectSameDistribution(got.distribution, want.distribution, num_nodes,
                         where);
  EXPECT_EQ(Bits(got.entity_utilities), Bits(want.entity_utilities)) << where;
  EXPECT_EQ(Bits(got.sorted_utilities), Bits(want.sorted_utilities)) << where;
  EXPECT_EQ(Bits(got.job_future_speeds), Bits(want.job_future_speeds))
      << where;
  EXPECT_EQ(Bits(got.batch_allocation), Bits(want.batch_allocation)) << where;
  EXPECT_EQ(Bits(got.tx_allocation), Bits(want.tx_allocation)) << where;
  EXPECT_EQ(got.changes, want.changes) << where;
  EXPECT_FALSE(got.rejected_by_bound) << where;
}

TEST(SparsePathEquivalenceTest, MovesMatchTheDenseOracle) {
  constexpr int kSnapshots = 150;
  constexpr int kMovesPerKind = 6;
  const MoveKind kinds[] = {MoveKind::kWish, MoveKind::kPeelWish,
                            MoveKind::kMigration, MoveKind::kTxBootstrap,
                            MoveKind::kBatchBootstrap};
  int feasible_by_kind[5] = {};
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= kSnapshots; ++seed) {
    Rng rng(seed);
    const RandomCase c = MakeRandomCase(rng);
    PlacementSnapshot snap = c.builder.Build();
    snap.set_constraints(c.constraints);

    // Whole-matrix verdicts on the current placement and on random ones.
    EXPECT_EQ(snap.IsFeasible(snap.current_placement()),
              ReferenceIsFeasible(snap, snap.current_placement()))
        << "seed " << seed;
    for (int k = 0; k < 4; ++k) {
      PlacementMatrix p(snap.num_entities(), snap.num_nodes());
      for (int e = 0; e < snap.num_entities(); ++e) {
        for (int n = 0; n < snap.num_nodes(); ++n) {
          p.at(e, n) = rng.Uniform01() < 0.3 ? 1 : 0;
        }
      }
      EXPECT_EQ(snap.IsFeasible(p), ReferenceIsFeasible(snap, p))
          << "seed " << seed;
    }

    const PlacementMatrix base_dense = RandomFeasibleBase(snap, rng);
    const SparsePlacement base(base_dense);
    ASSERT_TRUE(snap.IsFeasible(base)) << "seed " << seed;

    // One evaluator, one scratch and one distributor scratch serve every
    // move of this snapshot, so the memos warm up as in a search.
    const PlacementEvaluator evaluator(&snap);
    const LoadDistributor distributor(&snap);
    EvalScratch scratch;
    DistributorScratch dist_scratch;
    SparsePlacement view = base;
    PlacementMove move;
    for (int round = 0; round < kMovesPerKind; ++round) {
      for (std::size_t k = 0; k < std::size(kinds); ++k) {
        if (!RandomMove(snap, base, kinds[k], rng, move)) continue;
        const std::string where = std::string(Name(kinds[k])) + ", seed " +
                                  std::to_string(seed) + ", round " +
                                  std::to_string(round);
        PlacementMatrix dense = base_dense;
        move.ApplyTo(dense);
        view.Apply(move);
        ASSERT_EQ(view.ToMatrix(), dense) << where;

        const bool want_feasible = ReferenceIsFeasible(snap, dense);
        EXPECT_EQ(snap.NodesFeasible(view, move.nodes), want_feasible)
            << where;
        EXPECT_EQ(snap.IsFeasible(view), want_feasible) << where;
        if (want_feasible) {
          ++feasible_by_kind[k];
          ExpectSameDistribution(
              distributor.Distribute(view, move.nodes, dist_scratch),
              ReferenceDistribute(snap, dense), snap.num_nodes(), where);
          ExpectSameEvaluation(
              evaluator.Evaluate(view, move.nodes, scratch, nullptr),
              ReferenceEvaluate(snap, dense), snap.num_nodes(), where);
        } else {
          ++infeasible;
        }
        view.Revert(move);
        ASSERT_EQ(view, base) << where;
      }
    }
    if (HasFailure()) break;
  }
  // Every move kind produced feasible candidates to compare, and the
  // verdicts were not all one way.
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    EXPECT_GT(feasible_by_kind[k], 20) << Name(kinds[k]);
  }
  EXPECT_GT(infeasible, 100);
}

}  // namespace
}  // namespace mwp
