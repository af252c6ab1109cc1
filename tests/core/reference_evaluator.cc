#include "tests/core/reference_evaluator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/hypothetical_rpf.h"
#include "core/load_distributor.h"

namespace mwp::testing_oracle {

PlacementEvaluation ReferenceEvaluate(const PlacementSnapshot& snap,
                                      const PlacementMatrix& p) {
  PlacementEvaluation eval;
  eval.distribution = LoadDistributor(&snap).Distribute(p);
  eval.entity_utilities.assign(static_cast<std::size_t>(snap.num_entities()),
                               kUtilityFloor);
  eval.job_future_speeds.assign(static_cast<std::size_t>(snap.num_jobs()), 0.0);

  const Seconds cycle_end = snap.now() + snap.control_cycle();

  // Advance each job through the next cycle; still-incomplete jobs enter the
  // hypothetical RPF evaluated at cycle end.
  std::vector<HypotheticalJobState> hyp_jobs;
  std::vector<int> hyp_index;  // snapshot job index per hyp entry
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const JobView& jv = snap.job(j);
    const auto entity = static_cast<std::size_t>(snap.EntityOfJob(j));
    const MHz alloc = eval.distribution.totals[entity];
    eval.batch_allocation += alloc;

    Megacycles done = jv.work_done;
    Seconds start_delay_at_end = 0.0;
    if (eval.distribution.placed[entity] && alloc > 0.0) {
      const Seconds exec_start =
          JobExecStart(snap, jv, FirstNodeOf(p, snap.EntityOfJob(j)));
      if (exec_start < cycle_end) {
        done = jv.profile->WorkAfterRunning(done, alloc, cycle_end - exec_start);
        if (jv.profile->RemainingWork(done) <= kEpsilon) {
          const Seconds finish =
              exec_start +
              jv.profile->RemainingTimeAtSpeed(jv.work_done, alloc);
          eval.entity_utilities[entity] =
              (jv.goal.completion_goal - finish) / jv.goal.relative_goal();
          eval.job_future_speeds[static_cast<std::size_t>(j)] = alloc;
          continue;
        }
      } else {
        start_delay_at_end = exec_start - cycle_end;
      }
    } else {
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
    const HypotheticalRpf hyp(std::move(hyp_jobs), cycle_end,
                              HypotheticalRpf::DefaultGrid());
    const std::vector<HypotheticalRpf::JobOutcome> outcomes =
        hyp.Evaluate(eval.batch_allocation);
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const int entity = snap.EntityOfJob(hyp_index[k]);
      eval.entity_utilities[static_cast<std::size_t>(entity)] =
          outcomes[k].utility;
      eval.job_future_speeds[static_cast<std::size_t>(hyp_index[k])] =
          outcomes[k].speed;
    }
  }

  for (int w = 0; w < snap.num_tx(); ++w) {
    const auto entity = static_cast<std::size_t>(snap.EntityOfTx(w));
    eval.tx_allocation += eval.distribution.totals[entity];
    eval.entity_utilities[entity] = eval.distribution.placed[entity]
                                        ? eval.distribution.utilities[entity]
                                        : kUtilityFloor;
    if (snap.tx(w).arrival_rate <= 1e-12) eval.entity_utilities[entity] = 1.0;
  }

  // Job removals are suspensions; additions of suspended jobs are resumes.
  std::vector<bool> removal_is_suspend(
      static_cast<std::size_t>(snap.num_entities()), false);
  std::vector<bool> addition_is_resume(
      static_cast<std::size_t>(snap.num_entities()), false);
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const auto entity = static_cast<std::size_t>(snap.EntityOfJob(j));
    removal_is_suspend[entity] = true;
    addition_is_resume[entity] = snap.job(j).status == JobStatus::kSuspended;
  }
  eval.changes = DiffPlacements(snap.current_placement(), p,
                                removal_is_suspend, addition_is_resume);

  eval.sorted_utilities = eval.entity_utilities;
  std::sort(eval.sorted_utilities.begin(), eval.sorted_utilities.end());
  return eval;
}

}  // namespace mwp::testing_oracle
