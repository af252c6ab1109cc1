// Property tests: the evaluation engine (column cache, distributor memos,
// scratch reuse, bound-based early exit, parallel candidate search) is
// bit-for-bit equivalent to scoring from scratch. Every speedup in the hot
// path is justified by an exactness argument (memoized values are the exact
// doubles recomputation would produce, summation orders are preserved);
// these tests check the end-to-end claim over randomized snapshots with
// exact ==, not tolerances. The from-scratch oracle is
// tests/core/reference_evaluator.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/placement_optimizer.h"
#include "tests/core/reference_evaluator.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_oracle::ReferenceEvaluate;

/// A small random mixed-workload snapshot: a few nodes, a batch of jobs in
/// random states, and up to two transactional apps.
SnapshotBuilder RandomSnapshot(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(1, 4));
  SnapshotBuilder b(
      ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0}));
  b.now = rng.Uniform(0.0, 10.0);
  b.cycle = rng.Uniform(0.5, 2.0);
  // Free memory per node: the generated *current* placement must be
  // feasible, so instances land only where they fit.
  std::vector<Megabytes> free_mem(static_cast<std::size_t>(nodes), 2'000.0);
  auto pick_node = [&](Megabytes need) -> NodeId {
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (free_mem[static_cast<std::size_t>(n)] >= need) return n;
    }
    return kInvalidNode;
  };

  const int num_jobs = static_cast<int>(rng.UniformInt(0, 7));
  for (int j = 0; j < num_jobs; ++j) {
    const Megacycles work = rng.Uniform(500.0, 8'000.0);
    const MHz max_speed = rng.Uniform(200.0, 1'000.0);
    const Megabytes memory = rng.Uniform(200.0, 900.0);
    const Seconds submit = rng.Uniform(0.0, b.now);
    const double factor = rng.Uniform(1.5, 6.0);
    JobStatus status = JobStatus::kNotStarted;
    NodeId node = kInvalidNode;
    Megacycles done = 0.0;
    const double roll = rng.Uniform01();
    if (roll < 0.4) {
      node = pick_node(memory);
      if (node != kInvalidNode) {
        status = JobStatus::kRunning;
        done = rng.Uniform(0.0, 0.8 * work);
        free_mem[static_cast<std::size_t>(node)] -= memory;
      }
    } else if (roll < 0.55) {
      status = JobStatus::kSuspended;
      done = rng.Uniform(0.0, 0.8 * work);
    }
    JobView& v = b.AddJob(j + 1, work, max_speed, memory, submit, factor,
                          status, node, done);
    if (status == JobStatus::kSuspended || status == JobStatus::kNotStarted) {
      v.place_overhead = rng.Uniform(0.0, 0.2);
    }
  }

  const int num_tx = static_cast<int>(rng.UniformInt(0, 2));
  for (int w = 0; w < num_tx; ++w) {
    TransactionalAppSpec spec;
    spec.id = 100 + w;
    spec.name = "tx";
    spec.memory_per_instance = rng.Uniform(300.0, 800.0);
    spec.response_time_goal = rng.Uniform(0.5, 2.0);
    spec.demand_per_request = rng.Uniform(5.0, 30.0);
    spec.min_response_time = 0.05;
    spec.saturation_allocation = rng.Uniform(400.0, 1'200.0);
    std::vector<NodeId> on;
    if (rng.Uniform01() < 0.7) {
      const NodeId n = pick_node(spec.memory_per_instance);
      if (n != kInvalidNode) {
        on.push_back(n);
        free_mem[static_cast<std::size_t>(n)] -= spec.memory_per_instance;
      }
    }
    b.AddTx(spec, rng.Uniform(1.0, 25.0), std::move(on));
  }
  return b;
}

/// Fisher-Yates over `v` with the test's seeded generator.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// A random placement that passes IsFeasible: entities in random order,
/// each offered a few random nodes, an instance kept only while the whole
/// placement stays feasible.
PlacementMatrix RandomFeasiblePlacement(const PlacementSnapshot& snap,
                                        Rng& rng) {
  PlacementMatrix p(snap.num_entities(), snap.num_nodes());
  std::vector<int> order(static_cast<std::size_t>(snap.num_entities()));
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = static_cast<int>(e);
  Shuffle(order, rng);
  for (const int e : order) {
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (rng.Uniform01() >= 0.4) continue;
      p.at(e, n) += 1;
      if (!snap.IsFeasible(p)) p.at(e, n) -= 1;
    }
  }
  return p;
}

/// The sequential search with every default: the reference the parallel
/// and sharded searches must reproduce.
PlacementOptimizer::Options SequentialOptions() {
  PlacementOptimizer::Options o;
  o.search_threads = 1;
  return o;
}

void ExpectIdentical(const PlacementOptimizer::Result& got,
                     const PlacementOptimizer::Result& want,
                     std::uint64_t seed) {
  EXPECT_EQ(got.placement, want.placement) << "seed " << seed;
  EXPECT_EQ(got.evaluations, want.evaluations) << "seed " << seed;
  EXPECT_EQ(got.used_shortcut, want.used_shortcut) << "seed " << seed;
  // Exact ==: the engines must produce the same doubles, not close ones.
  EXPECT_EQ(got.evaluation.sorted_utilities, want.evaluation.sorted_utilities)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.entity_utilities, want.evaluation.entity_utilities)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.changes, want.evaluation.changes)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.distribution.totals,
            want.evaluation.distribution.totals)
      << "seed " << seed;
}

/// `got` (scored against reject bound `bound`) equals the from-scratch
/// `want` in every field the evaluator fills; the sorted vector and change
/// list only when the bound did not cut the evaluation short, which must
/// happen exactly when `want`'s minimum loses at index 0.
void ExpectMatchesReference(const PlacementEvaluation& got,
                            const PlacementEvaluation& want,
                            const PlacementEvaluation& bound,
                            double tie_tolerance, std::uint64_t seed) {
  EXPECT_EQ(got.entity_utilities, want.entity_utilities) << "seed " << seed;
  EXPECT_EQ(got.distribution.totals, want.distribution.totals)
      << "seed " << seed;
  EXPECT_EQ(got.job_future_speeds, want.job_future_speeds) << "seed " << seed;
  EXPECT_EQ(got.batch_allocation, want.batch_allocation) << "seed " << seed;
  EXPECT_EQ(got.tx_allocation, want.tx_allocation) << "seed " << seed;
  const bool loses_at_min =
      !want.sorted_utilities.empty() && !bound.sorted_utilities.empty() &&
      want.sorted_utilities[0] - bound.sorted_utilities[0] < -tie_tolerance;
  EXPECT_EQ(got.rejected_by_bound, loses_at_min) << "seed " << seed;
  if (!got.rejected_by_bound) {
    EXPECT_EQ(got.sorted_utilities, want.sorted_utilities) << "seed " << seed;
    EXPECT_EQ(got.changes, want.changes) << "seed " << seed;
  }
}

TEST(EvaluatorEquivalenceTest, IncrementalMatchesReferenceOnRandomSnapshots) {
  constexpr int kSnapshots = 220;
  constexpr int kRandomPlacements = 24;
  for (std::uint64_t seed = 1; seed <= kSnapshots; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();
    const PlacementMatrix& current = snap.current_placement();
    const PlacementEvaluation incumbent = ReferenceEvaluate(snap, current);

    // A default search warms its evaluator's caches and memos with every
    // candidate it scores; its winner was scored through them mid-search.
    const PlacementOptimizer::Result result =
        PlacementOptimizer(&snap).Optimize();
    const PlacementEvaluation winner = ReferenceEvaluate(snap, result.placement);
    EXPECT_EQ(result.incumbent_utilities, incumbent.sorted_utilities)
        << "seed " << seed;
    ExpectMatchesReference(result.evaluation, winner, PlacementEvaluation{},
                           0.0, seed);

    // One evaluator and one scratch score the incumbent, the winner and
    // random feasible placements twice, each pass in its own shuffled order:
    // the first pass mixes memo misses and hits, the second is served from
    // the memos the first left behind.
    std::vector<PlacementMatrix> placements = {current, result.placement};
    for (int k = 0; k < kRandomPlacements; ++k) {
      placements.push_back(RandomFeasiblePlacement(snap, rng));
    }
    std::vector<PlacementEvaluation> want;
    for (const PlacementMatrix& p : placements) {
      want.push_back(ReferenceEvaluate(snap, p));
    }
    const PlacementEvaluator evaluator(&snap);
    EvalScratch scratch;
    const double tie_tolerance = evaluator.options().tie_tolerance;
    std::vector<std::size_t> order(placements.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int pass = 0; pass < 2; ++pass) {
      Shuffle(order, rng);
      for (const std::size_t i : order) {
        ExpectMatchesReference(
            evaluator.Evaluate(placements[i], scratch, &incumbent), want[i],
            incumbent, tie_tolerance, seed);
      }
    }
    if (HasFailure()) break;
  }
}

TEST(EvaluatorEquivalenceTest, ColumnMemoKeysOnStartDelay) {
  // A running job whose migration outlasts the cycle ends the cycle with
  // the work it has now both when it is suspended and when it is migrated;
  // only the start delay its hypothetical column sees differs (none when
  // it is placed again later, the unfinished migration when it moves). One
  // scratch scores both, so the second candidate finds the first one's
  // column in the scratch's per-job memo and must not take it.
  SnapshotBuilder b(ClusterSpec::Uniform(2, NodeSpec{1, 1'000.0, 2'000.0}));
  b.now = 5.0;
  b.cycle = 1.0;
  JobView& moving = b.AddJob(1, 4'000.0, 800.0, 500.0, 0.0, 3.0,
                             JobStatus::kRunning, 0, 1'000.0);
  moving.migrate_overhead = 3.0;
  b.AddJob(2, 6'000.0, 600.0, 500.0, 0.0, 2.5, JobStatus::kRunning, 1,
           2'000.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix suspended = snap.current_placement();
  suspended.at(0, 0) = 0;
  PlacementMatrix migrated = suspended;
  migrated.at(0, 1) = 1;
  const PlacementEvaluation want_suspended = ReferenceEvaluate(snap, suspended);
  const PlacementEvaluation want_migrated = ReferenceEvaluate(snap, migrated);
  // The case means something only if the two delays score differently.
  ASSERT_NE(want_suspended.entity_utilities[0],
            want_migrated.entity_utilities[0]);

  const PlacementEvaluator evaluator(&snap);
  EvalScratch scratch;
  ExpectMatchesReference(evaluator.Evaluate(suspended, scratch, nullptr),
                         want_suspended, PlacementEvaluation{}, 0.0, 1);
  ExpectMatchesReference(evaluator.Evaluate(migrated, scratch, nullptr),
                         want_migrated, PlacementEvaluation{}, 0.0, 2);
}

TEST(EvaluatorEquivalenceTest, ParallelSearchMatchesReference) {
  // Force multiple lanes regardless of the host's core count: the chunked
  // search must pick the same winners in the same order.
  PlacementOptimizer::Options parallel;
  parallel.search_threads = 4;
  for (std::uint64_t seed = 1'000; seed < 1'060; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();

    const PlacementOptimizer optimized(&snap, parallel);
    const PlacementOptimizer reference(&snap, SequentialOptions());
    ExpectIdentical(optimized.Optimize(), reference.Optimize(), seed);
    if (HasFailure()) break;
  }
}

TEST(EvaluatorEquivalenceTest, RepeatedEvaluationsReuseCacheExactly) {
  // Evaluating the same placements twice through one evaluator must return
  // the same doubles as the first pass (the cache returns what it stored),
  // and the cache must actually be exercised.
  Rng rng(42);
  const SnapshotBuilder b = RandomSnapshot(rng);
  const PlacementSnapshot snap = b.Build();
  const PlacementEvaluator eval(&snap);

  const PlacementMatrix& current = snap.current_placement();
  const PlacementEvaluation first = eval.Evaluate(current);
  const PlacementEvaluation second = eval.Evaluate(current);
  EXPECT_EQ(first.sorted_utilities, second.sorted_utilities);
  EXPECT_EQ(first.entity_utilities, second.entity_utilities);
  if (snap.num_jobs() > 0) {
    EXPECT_GT(eval.cache_misses(), 0u);
  }
}

}  // namespace
}  // namespace mwp
