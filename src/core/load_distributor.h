// CPU load distribution for a fixed placement (the paper's L matrix).
//
// Given a candidate placement P, the controller must divide each node's CPU
// among the instances it hosts so that the ordered vector of application
// relative performance is lexicographically maximal (§3.2 "Optimization
// objective"). This is classic progressive filling over monotone RPFs:
//
//   1. raise a common utility level for all unfixed applications as far as
//      node capacities allow (bisection; feasibility of a level is a
//      transportation problem solved by max-flow over the instances);
//   2. applications that saturate (reach their maximum achievable utility)
//      or are resource-bottlenecked get fixed at the level;
//   3. repeat with the rest until everyone is fixed.
//
// The batch workload bargains as ONE entity whose RPF is the hypothetical
// aggregate curve of §4.2 (BatchAggregateRpf): its demand at a level is the
// Eq. 6 aggregate over every incomplete job — placed and queued — so CPU
// flows from transactional apps to the batch workload exactly when queued
// work drags the batch level below the transactional RP, the behaviour
// Experiment Three demonstrates. The granted aggregate is routed through
// the placed job instances (per-instance cap: the job's stage ω_max) and
// then decomposed within each node by equalizing the local jobs' completion
// RPFs. A per-job bargaining mode (each placed job negotiates with its own
// completion RPF) is retained as an ablation.
//
// Distribute is called once per candidate placement — hundreds to thousands
// of times per control cycle — so all per-call state lives in a reusable
// DistributorScratch: the flow network is built once per Distribute as
// compact paired-edge residual arrays (only the source→entity demands change
// between the ~50 feasibility probes of the bisection), and the batch
// aggregate's demand curve is memoized across candidates (it depends only on
// the snapshot, not the placement). Feasibility probes start warm from the
// flow of the last feasible probe when no demand fell below it
// (feasibility_flow.h), yet every verdict is exact: it equals the verdict of
// a cold solve, and a probe whose warm shortfall is too close to the
// tolerance to tell is re-solved cold. The final routing, and the
// best-effort routing of an unroutable floor, are always cold solves, so
// they take the same augmenting paths a fresh solve would; memoized demands
// are the exact doubles a fresh computation would produce.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "core/feasibility_flow.h"
#include "core/hypothetical_rpf.h"
#include "core/snapshot.h"

namespace mwp {

struct DistributionResult {
  /// CPU allocated per (entity, node), MHz.
  LoadMatrix loads;
  /// Per-entity totals ω_e (0 for unplaced entities).
  std::vector<MHz> totals;
  /// Per-entity achieved utility; meaningful only for placed entities
  /// (unplaced carry kUtilityFloor). Transactional utilities come from the
  /// queuing model; job utilities from their completion RPFs at the
  /// decomposed allocation.
  std::vector<Utility> utilities;
  /// Whether the entity had at least one instance in the placement.
  std::vector<bool> placed;
  /// The level the batch aggregate reached; NaN when the placement hosts no
  /// batch entity (no placed jobs, or per-job bargaining mode).
  Utility batch_level = std::numeric_limits<double>::quiet_NaN();
};

/// Reusable buffers for Distribute: the feasibility flow network and its
/// residual buffers, plus memo tables valid for the owning distributor's
/// snapshot. Use one scratch per thread; results are independent of which
/// scratch is used (memoized values are bit-identical to recomputation).
class DistributorScratch {
 public:
  DistributorScratch() = default;

  /// Activity counters, monotone over the scratch's lifetime — never reset
  /// internally. The optimizer differences them around a solve to report
  /// per-cycle distributor effort in the observability trace.
  struct Stats {
    std::uint64_t distribute_calls = 0;  ///< Distribute() invocations
    /// Max-flow probes: feasibility verdicts plus routings, one each (a
    /// cold re-check does not count as a second probe).
    std::uint64_t flow_probes = 0;
    std::uint64_t augmentations = 0;  ///< augmenting paths, all solves
    /// Warm verdicts too close to the tolerance, re-solved cold.
    std::uint64_t cold_rechecks = 0;
  };
  Stats stats() const {
    Stats s = stats_;
    s.augmentations = flow.augmentations();
    s.cold_rechecks = flow.cold_rechecks();
    return s;
  }

 private:
  friend class LoadDistributor;

  Stats stats_;

  /// Distributor the memo tables belong to; they are cleared when the
  /// scratch is handed to a different distributor.
  const void* owner = nullptr;

  // Flow network for the current Distribute call (vertices: source, one per
  // fill entity, one per node, sink). Demand edge i feeds fill entity i;
  // fill entity i's instance edges are entity_edges[i] + k, per nodes[k].
  FeasibilityFlow flow;
  int num_fill_entities = 0;
  std::vector<int> entity_edges;

  // Per-call demand and routing buffers.
  std::vector<MHz> demands;
  std::vector<std::vector<MHz>> routing;

  // Batch-mode decomposition: hosting node per job (-1 when unplaced),
  // recorded while building the batch entity, and the per-node job groups
  // derived from it for the final assembly.
  std::vector<int> job_node;
  std::vector<std::vector<int>> node_jobs;

  /// Batch aggregate demand curve memo: clamped level bits → Eq. 6
  /// aggregate. Valid across candidates because the hypothetical RPF
  /// depends only on the snapshot.
  std::unordered_map<std::uint64_t, MHz> batch_demand_memo;
};

class LoadDistributor {
 public:
  struct Options {
    /// Convergence tolerance on the common utility level.
    double level_tolerance = 1e-4;
    /// Probe step used to detect resource-bottlenecked entities.
    double probe_delta = 1e-3;
    int bisection_iters = 48;
    /// true: the paper's model — the batch workload bargains as one
    /// hypothetical-aggregate entity. false: each placed job bargains
    /// individually (ablation; ignores queued jobs' needs).
    bool batch_aggregate = true;
  };

  explicit LoadDistributor(const PlacementSnapshot* snapshot);
  LoadDistributor(const PlacementSnapshot* snapshot, Options options);

  /// Distribute node CPU under placement `p`. `p` must be feasible. Uses the
  /// distributor's internal scratch — not safe for concurrent calls.
  DistributionResult Distribute(const PlacementMatrix& p) const;

  /// As above with caller-provided scratch; use one scratch per thread for
  /// concurrent distribution.
  DistributionResult Distribute(const PlacementMatrix& p,
                                DistributorScratch& scratch) const;

  /// The hypothetical RPF (at snapshot time, over all incomplete jobs)
  /// driving the batch aggregate entity; null when the snapshot has no jobs
  /// or per-job mode is selected.
  const HypotheticalRpf* hypothetical() const { return hypothetical_.get(); }

 private:
  struct FillEntity;  // internal per-entity solver state

  const PlacementSnapshot* snapshot_;
  Options options_;
  std::unique_ptr<HypotheticalRpf> hypothetical_;
  /// Scratch for the one-argument Distribute overload.
  mutable DistributorScratch scratch_;

  std::vector<FillEntity> BuildEntities(const PlacementMatrix& p,
                                        DistributorScratch& scratch) const;
  /// Builds the flow network for the current entity set into `scratch`;
  /// only source edges vary per probe.
  void PrepareFlowNetwork(const std::vector<FillEntity>& entities,
                          DistributorScratch& scratch) const;
  /// True when demands (per fill entity, MHz) can be routed within node
  /// capacities and per-instance caps. The verdict is exact; the probe may
  /// start warm. With `commit`, a feasible probe's flow becomes the start
  /// of later warm probes. PrepareFlowNetwork must have run for this
  /// entity set.
  bool ProbeDemands(const std::vector<MHz>& demands,
                    DistributorScratch& scratch, bool commit) const;
  /// Routes demands with a cold max-flow and returns the routing
  /// (fill-entity-major, nodes wide), whether or not all demand fits;
  /// returns the exact verdict.
  bool RouteDemands(const std::vector<FillEntity>& entities,
                    const std::vector<MHz>& demands,
                    DistributorScratch& scratch,
                    std::vector<std::vector<MHz>>& routing) const;
  /// Equalize local jobs' completion RPFs within one node's batch share.
  /// `local_jobs` holds the snapshot job indices hosted on `node`, in
  /// ascending order.
  void DecomposeNodeShare(std::span<const int> local_jobs, int node,
                          MHz share, DistributionResult& result) const;
};

}  // namespace mwp
