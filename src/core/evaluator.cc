#include "core/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace mwp {

PlacementEvaluator::PlacementEvaluator(const PlacementSnapshot* snapshot)
    : PlacementEvaluator(snapshot, Options{}) {}

PlacementEvaluator::PlacementEvaluator(const PlacementSnapshot* snapshot,
                                       Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      distributor_(snapshot, options_.distributor),
      current_(snapshot->current_placement()) {
  MWP_CHECK(snapshot_ != nullptr);
  MWP_CHECK(options_.tie_tolerance >= 0.0);

  const PlacementSnapshot& snap = *snapshot_;
  removal_is_suspend_.assign(static_cast<std::size_t>(snap.num_entities()),
                             false);
  addition_is_resume_.assign(static_cast<std::size_t>(snap.num_entities()),
                             false);
  for (int j = 0; j < snap.num_jobs(); ++j) {
    removal_is_suspend_[static_cast<std::size_t>(snap.EntityOfJob(j))] = true;
    addition_is_resume_[static_cast<std::size_t>(snap.EntityOfJob(j))] =
        snap.job(j).status == JobStatus::kSuspended;
  }

  column_cache_ = std::make_unique<HypColumnCache>(
      snap.now() + snap.control_cycle(), HypotheticalRpf::DefaultGrid(),
      snap.num_jobs());

  // nullptr for the default max-min objective: Evaluate and Compare then
  // take exactly the pre-objective code paths (bit-exactness contract).
  objective_ = MakeFairnessObjective(options_.objective, snap);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const PlacementMatrix& p) const {
  return Evaluate(p, scratch_, nullptr);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const PlacementMatrix& p, EvalScratch& scratch,
    const PlacementEvaluation* reject_bound) const {
  scratch.placement.Assign(p);
  MWP_CHECK_MSG(snapshot_->IsFeasible(scratch.placement),
                "Evaluate requires a feasible placement");
  // Checked on every node above; nothing is left for Distribute to check.
  return Evaluate(scratch.placement, {}, scratch, reject_bound);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const SparsePlacement& p, std::span<const int> changed_nodes,
    EvalScratch& scratch, const PlacementEvaluation* reject_bound) const {
  const PlacementSnapshot& snap = *snapshot_;
  PlacementEvaluation eval;
  eval.distribution =
      distributor_.Distribute(p, changed_nodes, scratch.distributor);
  eval.entity_utilities.assign(static_cast<std::size_t>(snap.num_entities()),
                               kUtilityFloor);
  eval.job_future_speeds.assign(static_cast<std::size_t>(snap.num_jobs()), 0.0);

  const Seconds cycle_end = snap.now() + snap.control_cycle();

  // Advance each job through the next cycle; collect still-incomplete jobs
  // for the hypothetical RPF evaluated at cycle end.
  std::vector<HypotheticalJobState>& hyp_jobs = scratch.hyp_jobs;
  std::vector<int>& hyp_index = scratch.hyp_index;  // job index per hyp entry
  hyp_jobs.clear();
  hyp_index.clear();
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const JobView& jv = snap.job(j);
    const int entity = snap.EntityOfJob(j);
    const MHz alloc = eval.distribution.totals[static_cast<std::size_t>(entity)];
    eval.batch_allocation += alloc;

    Megacycles done = jv.work_done;
    Seconds start_delay_at_end = 0.0;
    if (eval.distribution.placed[static_cast<std::size_t>(entity)] &&
        alloc > 0.0) {
      const Seconds exec_start = JobExecStart(snap, jv, p.FirstNode(entity));
      if (exec_start < cycle_end) {
        done = jv.profile->WorkAfterRunning(done, alloc, cycle_end - exec_start);
        if (jv.profile->RemainingWork(done) <= kEpsilon) {
          // Completes inside the cycle: utility of the exact finish time.
          const Seconds finish =
              exec_start +
              jv.profile->RemainingTimeAtSpeed(jv.work_done, alloc);
          eval.entity_utilities[static_cast<std::size_t>(entity)] =
              (jv.goal.completion_goal - finish) / jv.goal.relative_goal();
          eval.job_future_speeds[static_cast<std::size_t>(j)] = alloc;
          continue;
        }
      } else {
        start_delay_at_end = exec_start - cycle_end;
      }
    } else {
      // Not placed (or paused): if placed next cycle it pays its placement
      // latency then.
      start_delay_at_end = jv.place_overhead;
    }
    HypotheticalJobState hs;
    hs.profile = jv.profile;
    hs.goal = jv.goal;
    hs.work_done = done;
    hs.start_delay = start_delay_at_end;
    hyp_jobs.push_back(hs);
    hyp_index.push_back(j);
  }

  if (!hyp_jobs.empty()) {
    // Assemble the hypothetical RPF from memoized per-job columns; the
    // interpolation runs through the same EvaluateColumns as a
    // from-scratch HypotheticalRpf.
    std::vector<const HypotheticalRpf::Column*>& cols = scratch.columns;
    cols.resize(hyp_jobs.size());
    if (scratch.last_columns.size() !=
        static_cast<std::size_t>(snap.num_jobs())) {
      scratch.last_columns.assign(static_cast<std::size_t>(snap.num_jobs()),
                                  {});
    }
    for (std::size_t k = 0; k < hyp_jobs.size(); ++k) {
      const HypotheticalJobState& hs = hyp_jobs[k];
      EvalScratch::ColumnMemo& memo =
          scratch.last_columns[static_cast<std::size_t>(hyp_index[k])];
      const auto wb = std::bit_cast<std::uint64_t>(hs.work_done);
      const auto db = std::bit_cast<std::uint64_t>(hs.start_delay);
      if (memo.col == nullptr || memo.work_bits != wb ||
          memo.delay_bits != db) {
        memo = {wb, db, column_cache_->Get(hyp_index[k], hs)};
      }
      cols[k] = memo.col;
    }
    scratch.row_sums.assign(cols[0]->w.size(), 0.0);  // one per grid row
    HypotheticalRpf::AccumulateRowSums(cols, scratch.row_sums);
    scratch.outcomes.resize(hyp_jobs.size());
    HypotheticalRpf::EvaluateColumns(cols, scratch.row_sums,
                                     eval.batch_allocation, scratch.outcomes);
    for (std::size_t k = 0; k < scratch.outcomes.size(); ++k) {
      const int entity = snap.EntityOfJob(hyp_index[k]);
      eval.entity_utilities[static_cast<std::size_t>(entity)] =
          scratch.outcomes[k].utility;
      eval.job_future_speeds[static_cast<std::size_t>(hyp_index[k])] =
          scratch.outcomes[k].speed;
    }
  }

  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    eval.tx_allocation +=
        eval.distribution.totals[static_cast<std::size_t>(entity)];
    eval.entity_utilities[static_cast<std::size_t>(entity)] =
        eval.distribution.placed[static_cast<std::size_t>(entity)]
            ? eval.distribution.utilities[static_cast<std::size_t>(entity)]
            : kUtilityFloor;
    if (snap.tx(w).arrival_rate <= 1e-12) {
      // A quiesced application is satisfied whether placed or not.
      eval.entity_utilities[static_cast<std::size_t>(entity)] = 1.0;
    }
  }

  if (objective_ == nullptr) {
    if (reject_bound != nullptr && !eval.entity_utilities.empty() &&
        !reject_bound->sorted_utilities.empty()) {
      // Lexicographic early exit: the candidate's minimum utility is its
      // sorted index 0. Losing there by more than the tolerance is exactly
      // Compare's first -1 branch — no later index can save the candidate —
      // so skip materializing the sorted vector and the change list.
      const Utility cand_min = *std::min_element(eval.entity_utilities.begin(),
                                                 eval.entity_utilities.end());
      if (cand_min - reject_bound->sorted_utilities[0] <
          -options_.tie_tolerance) {
        eval.rejected_by_bound = true;
        return eval;
      }
    }
  } else if (reject_bound != nullptr && !eval.entity_utilities.empty() &&
             !reject_bound->objective_score.empty() &&
             objective_->RejectedByBound(eval.entity_utilities,
                                         reject_bound->objective_score,
                                         options_.tie_tolerance)) {
    eval.rejected_by_bound = true;
    return eval;
  }

  eval.changes =
      DiffPlacements(current_, p, removal_is_suspend_, addition_is_resume_);

  eval.sorted_utilities = eval.entity_utilities;
  std::sort(eval.sorted_utilities.begin(), eval.sorted_utilities.end());
  if (objective_ != nullptr) {
    objective_->Score(eval.entity_utilities, eval.objective_score);
  }
  return eval;
}

int PlacementEvaluator::Compare(const PlacementEvaluation& a,
                                const PlacementEvaluation& b) const {
  MWP_CHECK_MSG(!a.rejected_by_bound && !b.rejected_by_bound,
                "bound-rejected evaluations have no sorted vector to compare");
  if (objective_ != nullptr) {
    // Non-default objective: same lexicographic loop and tie-break, over
    // the objective's score vector instead of the sorted utilities.
    MWP_DCHECK(a.objective_score.size() == b.objective_score.size());
    for (std::size_t i = 0; i < a.objective_score.size(); ++i) {
      const double diff = a.objective_score[i] - b.objective_score[i];
      if (diff > options_.tie_tolerance) return 1;
      if (diff < -options_.tie_tolerance) return -1;
    }
    if (a.changes.size() < b.changes.size()) return 1;
    if (a.changes.size() > b.changes.size()) return -1;
    return 0;
  }
  MWP_DCHECK(a.sorted_utilities.size() == b.sorted_utilities.size());
  for (std::size_t i = 0; i < a.sorted_utilities.size(); ++i) {
    const double diff = a.sorted_utilities[i] - b.sorted_utilities[i];
    if (diff > options_.tie_tolerance) return 1;
    if (diff < -options_.tie_tolerance) return -1;
  }
  if (a.changes.size() < b.changes.size()) return 1;
  if (a.changes.size() > b.changes.size()) return -1;
  return 0;
}

}  // namespace mwp
