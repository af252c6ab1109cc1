// Placement optimizer — the APC's per-cycle search (§3.2 "Algorithm
// outline", after Carrera et al. [18]).
//
// The placement problem is NP-hard; the paper's heuristic is a set of three
// nested loops. The outer loop visits nodes; for each node an intermediate
// loop peels instances off the node one at a time (generating a number of
// base configurations linear in the instances placed there); for each base
// configuration an inner loop tries to place new instances of applications
// that want capacity, in *lowest relative performance first* order — the
// paper's fairness-oriented admission policy for batch jobs. Every
// candidate is scored by the evaluator; a change is committed only when its
// sorted utility vector is lexicographically better, with "fewer placement
// changes" breaking ties (this keeps the incumbent in Figure 1's S1 and
// minimizes churn in Experiment Two). A rebalancing stage additionally
// offers each node the lowest-performing jobs hosted elsewhere, generating
// the migrations the paper's mechanism set includes.
//
// Changes are committed one at a time against the current best placement,
// so every candidate is derived from consistent state; when nothing in the
// system wants more capacity the search short-cuts to re-evaluating the
// incumbent, mirroring the paper's observation that cycles where all jobs
// fit are much cheaper.
//
// No candidate is a copied matrix. Each solve builds the incumbent's sparse
// form once (checked feasible on every node) and every candidate travels
// as a PlacementMove: the residents peeled off a node and the wish placed
// there, one migration, or a bootstrap's additions. A candidate is checked
// on the nodes its move touches and scored on a per-lane copy of the
// incumbent that the move patches and then reverts; only a winner is
// written into the dense result, in place.
//
// Candidate search can run on a small internal thread pool
// (Options::search_threads): candidates are enumerated in the exact order
// the sequential loops would try them, scored concurrently in chunks, and
// committed by scanning the chunk in enumeration order for the first
// winner. Since a committed change restarts the stream from the new best
// placement — exactly as the sequential code returns on its first winner —
// the parallel search picks the same placements, and the evaluations
// counter counts only candidates the sequential order would have scored
// (speculative extras beyond the winner are discarded uncounted).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/evaluation_cache.h"
#include "core/evaluator.h"
#include "core/snapshot.h"
#include "core/thread_pool.h"

namespace mwp {

class PlacementOptimizer {
 public:
  // The search's fixed loop bounds. Every recorded trace carries them in its
  // options (the exporter writes them as literals), and the trace reader
  // rejects a recording made with other values.

  /// Committed changes per node visit.
  static constexpr int kMaxChangesPerNode = 8;
  /// Wish-list prefix tried per base configuration (lowest RP first).
  static constexpr int kMaxWishesTried = 8;
  /// Migration donors tried per node visit.
  static constexpr int kMaxMigrationsTried = 3;

  struct Options {
    PlacementEvaluator::Options evaluator;
    /// Full passes over the node set per cycle.
    int max_sweeps = 2;
    /// Concurrent lanes for candidate evaluation: 0 = hardware concurrency,
    /// 1 = sequential (no pool), n = caller plus n-1 workers. The chosen
    /// placement and the evaluations counter are identical for every value.
    int search_threads = 0;
  };

  struct Result {
    PlacementMatrix placement;
    PlacementEvaluation evaluation;
    int evaluations = 0;  ///< candidates scored, incumbent included
    bool used_shortcut = false;
    /// Sorted utility vector of the incumbent placement (the very first
    /// evaluation, before any change was committed) — the "before" series a
    /// CycleTrace pairs with evaluation.sorted_utilities.
    std::vector<Utility> incumbent_utilities;
    /// Solve-scoped activity deltas: hypothetical-RPF column cache hits and
    /// misses (the shared evaluation cache) and LoadDistributor calls,
    /// summed over all search lanes, for this Optimize call only.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t distribute_calls = 0;
  };

  explicit PlacementOptimizer(const PlacementSnapshot* snapshot);
  PlacementOptimizer(const PlacementSnapshot* snapshot, Options options);

  Result Optimize() const;

  /// Resolved lane count (after the search_threads=0 auto rule).
  int search_lanes() const { return lanes_; }

 private:
  // Parallel-search sharing discipline (checked under TSan by the
  // concurrency stress tests): Optimize may not be called concurrently on
  // one optimizer. During a chunk, lane `k` writes only scratches_[k] and
  // evals[k-slots]; the shared column cache inside evaluator_ synchronizes
  // internally (see HypColumnCache); the incumbent Result is read-only
  // until the chunk's ParallelFor has joined.
  const PlacementSnapshot* snapshot_;
  Options options_;
  PlacementEvaluator evaluator_;
  int lanes_ = 1;
  /// One evaluation scratch per lane (index 0 is the calling thread). Never
  /// shared across lanes; mutable because scoring through scratch is
  /// behaviourally const.
  mutable std::vector<EvalScratch> scratches_;
  /// Worker pool; null when lanes_ == 1.
  std::unique_ptr<ThreadPool> pool_;

  /// Per-solve search state: the incumbent in sparse form (equal to
  /// Result::placement) and one copy per lane, which a lane patches with a
  /// candidate's move, scores and reverts. All copies equal the incumbent
  /// between candidates. Defined in the .cc.
  struct SearchState;

  /// Entities that would take more capacity if offered: unplaced jobs and
  /// transactional apps below their saturation, ordered lowest-RP-first.
  std::vector<int> WishList(const SparsePlacement& p,
                            const PlacementEvaluation& eval) const;

  /// Scores the incumbent plus `move` on `lane`, against the incumbent's
  /// evaluation as reject bound.
  PlacementEvaluation ScoreMove(const PlacementMove& move, int lane,
                                const Result& result,
                                SearchState& state) const;
  /// True when `eval` beats the incumbent's evaluation.
  bool Beats(const PlacementEvaluation& eval, const Result& result) const;
  /// Makes the incumbent plus `move` the new incumbent.
  void Commit(const PlacementMove& move, PlacementEvaluation eval,
              Result& result, SearchState& state) const;

  /// Attempt one improving change involving `node`; commits it and returns
  /// true, or returns false when no candidate beats the incumbent.
  bool TryImproveNode(int node, Result& result, SearchState& state) const;

  /// The search itself; Optimize wraps it to difference the cache and
  /// distributor counters into the Result.
  Result RunSearch() const;

  /// Distribute() calls accumulated over all lanes' scratches.
  std::uint64_t TotalDistributeCalls() const;
};

}  // namespace mwp
