#include "tests/core/reference_evaluator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/hypothetical_rpf.h"

namespace mwp::testing_oracle {

LoadMatrix DenseLoads(const DistributionResult& result, int num_nodes) {
  LoadMatrix loads(static_cast<int>(result.totals.size()), num_nodes);
  for (const InstanceLoad& l : result.loads) loads.at(l.entity, l.node) = l.load;
  return loads;
}

int FirstNodeOf(const PlacementMatrix& p, int app) {
  for (int n = 0; n < p.num_nodes(); ++n) {
    if (p.at(app, n) > 0) return n;
  }
  return kInvalidNode;
}

bool ReferenceIsFeasible(const PlacementSnapshot& snap,
                         const PlacementMatrix& p) {
  MWP_CHECK(p.num_apps() == snap.num_entities());
  MWP_CHECK(p.num_nodes() == snap.num_nodes());
  // Each node's memory use adds the entities in ascending order, skipping
  // zero counts.
  std::vector<Megabytes> used(static_cast<std::size_t>(snap.num_nodes()), 0.0);
  for (int e = 0; e < snap.num_entities(); ++e) {
    const bool job = snap.IsJobEntity(e);
    int instances = 0;
    for (int n = 0; n < snap.num_nodes(); ++n) {
      const int count = p.at(e, n);
      if (count == 0) continue;
      if (count > 0 && !snap.NodeOnline(n)) return false;
      if (!job && count > 1) return false;
      used[static_cast<std::size_t>(n)] += count * snap.EntityMemory(e);
      instances += count;
    }
    if (job) {
      if (instances > 1) return false;
    } else {
      const int cap = snap.tx(snap.TxOfEntity(e)).max_instances;
      if (cap > 0 && instances > cap) return false;
    }
  }
  for (int n = 0; n < snap.num_nodes(); ++n) {
    if (snap.NodeOnline(n) &&
        snap.NodeAvailableMemory(n) - used[static_cast<std::size_t>(n)] <
            -kEpsilon) {
      return false;
    }
  }
  const PlacementConstraints& constraints = snap.constraints();
  for (int e = 0; e < snap.num_entities(); ++e) {
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (p.at(e, n) > 0 && !constraints.AllowsNode(snap.EntityAppId(e), n)) {
        return false;
      }
    }
  }
  for (const auto& [a, b] : constraints.separations()) {
    int ea = -1, eb = -1;
    for (int e = 0; e < snap.num_entities(); ++e) {
      if (snap.EntityAppId(e) == a) ea = e;
      if (snap.EntityAppId(e) == b) eb = e;
    }
    if (ea < 0 || eb < 0) continue;
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (p.at(ea, n) > 0 && p.at(eb, n) > 0) return false;
    }
  }
  return true;
}

std::vector<PlacementChange> ReferenceDiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume) {
  std::vector<PlacementChange> changes;
  for (int m = 0; m < from.num_apps(); ++m) {
    std::vector<int> removed_nodes;
    std::vector<int> added_nodes;
    for (int n = 0; n < from.num_nodes(); ++n) {
      int delta = to.at(m, n) - from.at(m, n);
      for (; delta < 0; ++delta) removed_nodes.push_back(n);
      for (; delta > 0; --delta) added_nodes.push_back(n);
    }
    const std::size_t pairs = std::min(removed_nodes.size(), added_nodes.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      changes.push_back(PlacementChange{PlacementChange::Kind::kMigrate, m,
                                        removed_nodes[i], added_nodes[i]});
    }
    for (std::size_t i = pairs; i < removed_nodes.size(); ++i) {
      changes.push_back(PlacementChange{
          removal_is_suspend[static_cast<std::size_t>(m)]
              ? PlacementChange::Kind::kSuspend
              : PlacementChange::Kind::kStop,
          m, removed_nodes[i], kInvalidNode});
    }
    for (std::size_t i = pairs; i < added_nodes.size(); ++i) {
      changes.push_back(PlacementChange{
          addition_is_resume[static_cast<std::size_t>(m)]
              ? PlacementChange::Kind::kResume
              : PlacementChange::Kind::kStart,
          m, kInvalidNode, added_nodes[i]});
    }
  }
  return changes;
}

DistributionResult ReferenceDistribute(const PlacementSnapshot& snap,
                                       const PlacementMatrix& p) {
  MWP_CHECK(ReferenceIsFeasible(snap, p));
  DistributionResult result = LoadDistributor(&snap).Distribute(p);
  for (int e = 0; e < snap.num_entities(); ++e) {
    result.placed[static_cast<std::size_t>(e)] = p.InstanceCount(e) > 0;
  }
  return result;
}

PlacementEvaluation ReferenceEvaluate(const PlacementSnapshot& snap,
                                      const PlacementMatrix& p) {
  PlacementEvaluation eval;
  eval.distribution = ReferenceDistribute(snap, p);
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
  eval.changes = ReferenceDiffPlacements(snap.current_placement(), p,
                                         removal_is_suspend,
                                         addition_is_resume);

  eval.sorted_utilities = eval.entity_utilities;
  std::sort(eval.sorted_utilities.begin(), eval.sorted_utilities.end());
  return eval;
}

}  // namespace mwp::testing_oracle
