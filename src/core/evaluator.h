// Candidate placement evaluation (§4.2 "Evaluating placement decisions").
//
// A candidate placement P is scored in four steps:
//   1. divide node CPU among the placed instances (LoadDistributor);
//   2. advance every placed job by the work it would complete over the next
//      control cycle at its allocation (charging VM boot/resume/migrate
//      latencies first); jobs that finish inside the cycle get the utility
//      of their exact completion time;
//   3. build the hypothetical RPF at t_now + T over all still-incomplete
//      jobs (placed and queued) and read each job's predicted utility under
//      the assumption that the batch workload keeps the aggregate
//      allocation ω_g = Σ_m ω_m of the next cycle;
//   4. transactional utilities come from the queuing model at their
//      allocations.
// The resulting per-entity utilities, sorted ascending, are the placement's
// score; comparison is lexicographic with a tolerance, with the number of
// placement changes as tie-breaker (the paper keeps the incumbent when RP
// vectors tie — Figure 1, S1 cycle 2).
//
// Hot path: step 3 assembles the hypothetical RPF, always over
// HypotheticalRpf::DefaultGrid(), from per-job columns memoized in a
// HypColumnCache instead of recomputing the W/V matrix, and all per-call
// buffers live in an EvalScratch. The columns and their interpolation are
// the same code a from-scratch HypotheticalRpf runs, so every evaluation is
// bit-for-bit what a fresh evaluator would compute; the from-scratch
// reference lives in tests/core/reference_evaluator and the equivalence
// tests compare against it with exact ==. Evaluate also accepts an optional
// reject bound: a candidate whose minimum utility already loses
// lexicographically against the bound at index 0 is rejected before the
// full sorted vector and change list are materialized — exactly the
// outcome Compare would reach, at a fraction of the cost.
#pragma once

#include <memory>
#include <vector>

#include "cluster/placement.h"
#include "core/evaluation_cache.h"
#include "core/fairness_objective.h"
#include "core/hypothetical_rpf.h"
#include "core/load_distributor.h"
#include "core/snapshot.h"

namespace mwp {

struct PlacementEvaluation {
  DistributionResult distribution;
  /// Final predicted utility per entity (jobs: hypothetical at t+T or exact
  /// completion utility; transactional apps: queuing-model utility).
  std::vector<Utility> entity_utilities;
  /// entity_utilities sorted ascending — the optimization objective.
  std::vector<Utility> sorted_utilities;
  /// Reconfiguration actions relative to the snapshot's current placement.
  std::vector<PlacementChange> changes;
  /// Aggregate CPU given to batch jobs (ω_g) and to transactional apps.
  MHz batch_allocation = 0.0;
  MHz tx_allocation = 0.0;
  /// Per job entity: the hypothetical future speed ω_m interpolated from the
  /// W matrix (jobs completing within the cycle carry their current
  /// allocation). Indexed like the snapshot's jobs.
  std::vector<MHz> job_future_speeds;
  /// Score vector under a non-default FairnessObjective, compared
  /// lexicographically ascending by Compare. Empty under the default
  /// lexicographic max-min objective, whose score IS sorted_utilities —
  /// keeping the default evaluation byte-identical to the pre-objective
  /// evaluator.
  std::vector<double> objective_score;
  /// True when the evaluation was cut short by the reject bound: the
  /// candidate's minimum utility loses at sorted index 0, so Compare
  /// against the bound would return -1. sorted_utilities and changes are
  /// not populated in that case.
  bool rejected_by_bound = false;
};

class PlacementEvaluator {
 public:
  /// The settable scoring parameters. The hypothetical-RPF sampling grid
  /// (HypotheticalRpf::DefaultGrid()) and the distributor's tolerances
  /// (LoadDistributor::k*) are fixed.
  struct Options {
    /// Sorted utility vectors whose elements all differ by less than this
    /// are considered tied (then fewer changes wins). The default exceeds
    /// one control cycle's worth of goal decay for the paper's Experiment
    /// One jobs (600 s / 47,520 s ≈ 0.0126), which is what keeps the
    /// algorithm from churning suspend/resume rotations among identical
    /// jobs under overload — the "no placement changes" behaviour of §5.1.
    double tie_tolerance = 0.02;
    LoadDistributor::Options distributor;
    /// The fairness objective scoring candidate placements. kMaxMin (the
    /// default) takes the original hardwired lexicographic max-min path.
    FairnessObjectiveConfig objective;
  };

  explicit PlacementEvaluator(const PlacementSnapshot* snapshot);
  PlacementEvaluator(const PlacementSnapshot* snapshot, Options options);

  PlacementEvaluation Evaluate(const PlacementMatrix& p) const;

  /// As above with caller-provided scratch (one per thread for concurrent
  /// evaluation) and an optional reject bound: when `reject_bound` is
  /// non-null and the candidate's minimum utility loses against
  /// reject_bound->sorted_utilities[0] by more than the tie tolerance, the
  /// returned evaluation has rejected_by_bound set and omits the sorted
  /// vector and change list.
  PlacementEvaluation Evaluate(const PlacementMatrix& p, EvalScratch& scratch,
                               const PlacementEvaluation* reject_bound) const;

  /// Lexicographic comparison of sorted utility vectors with tolerance:
  /// returns +1 when `a` is strictly better, -1 when worse, 0 when tied.
  /// On utility ties, the evaluation with fewer changes is better.
  int Compare(const PlacementEvaluation& a, const PlacementEvaluation& b) const;

  const PlacementSnapshot& snapshot() const { return *snapshot_; }
  const Options& options() const { return options_; }

  /// The active non-default fairness objective, or nullptr under the
  /// default lexicographic max-min. Callers ranking per-entity need (wish
  /// order, rebalancer worst-job picks) consult EntityBias through this.
  const FairnessObjective* objective() const { return objective_.get(); }

  /// Column-cache statistics.
  std::size_t cache_hits() const { return column_cache_->hits(); }
  std::size_t cache_misses() const { return column_cache_->misses(); }

 private:
  const PlacementSnapshot* snapshot_;
  Options options_;
  LoadDistributor distributor_;
  /// Change-kind lookups, fixed per snapshot: removals of incomplete jobs
  /// are suspensions; additions of previously suspended jobs are resumes.
  std::vector<bool> removal_is_suspend_;
  std::vector<bool> addition_is_resume_;
  /// Memoized hypothetical columns. The cache is behaviourally
  /// transparent, hence usable from const Evaluate.
  std::unique_ptr<HypColumnCache> column_cache_;
  /// Non-null only for a non-default objective (see objective()).
  std::unique_ptr<FairnessObjective> objective_;
  /// Scratch for the one-argument Evaluate overload.
  mutable EvalScratch scratch_;
};

}  // namespace mwp
