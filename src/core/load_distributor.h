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
// DistributorScratch: the flow network is built as compact paired-edge
// residual arrays (only the source→entity demands change between the ~50
// feasibility probes of the bisection), and the batch aggregate's demand
// curve is memoized across candidates (it depends only on the snapshot, not
// the placement). Feasibility probes start warm from the flow of the last
// feasible probe when no demand fell below it (feasibility_flow.h), yet
// every verdict is exact: it equals the verdict of a cold solve, and a probe
// whose warm shortfall is too close to the tolerance to tell is re-solved
// cold. The final routing, and the best-effort routing of an unroutable
// floor, are always cold solves, so they take the same augmenting paths a
// fresh solve would; memoized demands are the exact doubles a fresh
// computation would produce.
//
// Most candidates of a cycle repeat work already done that cycle: a swap of
// two identical jobs leaves the flow network unchanged, and a node whose
// jobs and share did not move splits its share the same way. Two memo
// tables in the scratch serve those repeats:
//
//   * the water-fill, keyed on the flow network read off the placement
//     before any RPF is built — per fill entity its kind, snapshot index,
//     active flag and fixed demand bits, then its nodes and edge-cap bits.
//     The entry holds each entity's demand and utility (the batch level is
//     the batch entity's) and the final routing, one double per key edge;
//   * the per-node job split (DecomposeNodeShare), keyed on the node, the
//     share's bits and the node's ascending job indices. The entry holds
//     each job's grant and utility.
//
// Both are exact. For a fixed snapshot and Options the fill is a pure
// function of its network: every probe verdict equals a cold solve's, the
// committed warm flow is reset for every network, the routings are cold
// solves, and the batch demand memo holds the exact doubles. The split is a
// pure function of its key. So a hit returns the bits a miss computes, and
// hits and misses feed one assembly path. The tables are cleared when the
// scratch passes to another distributor (named by a process-unique id, not
// its address, which a later distributor may reuse), so results do not
// depend on which scratch — or how many search lanes — served a candidate.
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

/// Reusable buffers for Distribute: the candidate's topology and memo key,
/// the feasibility flow network and its residual buffers, plus memo tables
/// valid for the owning distributor's snapshot. Use one scratch per thread;
/// results are independent of which scratch is used (memoized values are
/// bit-identical to recomputation).
class DistributorScratch {
 public:
  DistributorScratch() = default;

  /// Activity counters, monotone over the scratch's lifetime — never reset
  /// internally. The optimizer differences them around a solve to report
  /// per-cycle distributor effort in the observability trace.
  struct Stats {
    /// Distribute() invocations, memo hits included.
    std::uint64_t distribute_calls = 0;
    /// Max-flow probes: feasibility verdicts plus routings, one each (a
    /// cold re-check does not count as a second probe). Only solved fills
    /// probe; a fill memo hit adds none.
    std::uint64_t flow_probes = 0;
    std::uint64_t augmentations = 0;  ///< augmenting paths, all solves
    /// Warm verdicts too close to the tolerance, re-solved cold.
    std::uint64_t cold_rechecks = 0;
    /// Distribute calls whose water-fill came from the fill memo.
    std::uint64_t fill_memo_hits = 0;
    /// Per-node job splits that came from the split memo.
    std::uint64_t split_memo_hits = 0;
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

  /// Id of the distributor the memo tables belong to (0: none); they are
  /// cleared when the scratch is handed to a different distributor. Ids
  /// are never reused, unlike addresses.
  std::uint64_t owner = 0;

  // The candidate's fill entities as read off the placement, before any
  // RPF is built: one record per entity in fill order, its instance edges
  // back to back in edge_node / edge_cap. fill_key encodes them.
  enum class FillKind : std::uint8_t { kJob, kTx, kBatch };
  struct Fill {
    FillKind kind;
    int entity;  ///< snapshot entity index; -1 for the batch aggregate
    bool active;
    int first_edge;
    int num_edges;
  };
  std::vector<Fill> fills;
  std::vector<int> edge_node;
  std::vector<MHz> edge_cap;
  std::vector<MHz> node_cap;  // batch mode: per-node cap accumulator
  std::vector<std::uint64_t> fill_key;
  std::vector<std::uint64_t> split_key;

  // Flow network for a solved fill (vertices: source, one per fill entity,
  // one per node, sink). Demand edge i feeds fill entity i; fill entity i's
  // instance edges are entity_edges[i] + k.
  FeasibilityFlow flow;
  int num_fill_entities = 0;
  std::vector<int> entity_edges;

  // Per-call demand buffer, routing (one value per instance edge) and the
  // values a solved fill or split stores in its memo.
  std::vector<MHz> demands;
  std::vector<MHz> routing;
  std::vector<double> memo_values;

  // Batch-mode decomposition: hosting node per job (-1 when unplaced),
  // recorded while reading the topology, and the per-node job groups
  // derived from it for the final assembly.
  std::vector<int> job_node;
  std::vector<std::vector<int>> node_jobs;

  /// Memo table from variable-length keys (runs of 64-bit words) to runs of
  /// doubles. Keys and values sit back to back in flat pools, so a lookup
  /// allocates nothing. The table clears itself when it grows past a fixed
  /// size; a memo only saves work, so that changes no result.
  class Memo {
   public:
    static std::uint64_t Hash(std::span<const std::uint64_t> key);
    /// Index of the entry stored under `key` (whose Hash is `hash`), or -1.
    int Find(std::span<const std::uint64_t> key, std::uint64_t hash) const;
    /// Stores `values` under `key`, which must not be present; returns the
    /// new entry's index. Earlier indices are invalid if the table cleared.
    int Insert(std::span<const std::uint64_t> key, std::uint64_t hash,
               std::span<const double> values);
    std::span<const double> values(int entry) const;
    void Clear();

   private:
    struct Entry {
      std::size_t key_begin;
      std::size_t key_size;
      std::size_t value_begin;
      std::size_t value_size;
      int older;  ///< previous entry with the same hash, or -1
    };
    /// Hash → newest entry with that hash; equal hashes chain through older.
    std::unordered_map<std::uint64_t, int> newest_;
    std::vector<Entry> entries_;
    std::vector<std::uint64_t> keys_;
    std::vector<double> values_;
  };

  /// Batch aggregate demand curve memo: clamped level bits → Eq. 6
  /// aggregate. Valid across candidates because the hypothetical RPF
  /// depends only on the snapshot.
  std::unordered_map<std::uint64_t, MHz> batch_demand_memo;
  /// fill_key → per fill entity (demand, utility), then the final routing
  /// per instance edge.
  Memo fill_memo;
  /// (node, share bits, ascending local jobs) → per job (grant, utility).
  Memo split_memo;
};

class LoadDistributor {
 public:
  // The water-fill's fixed numeric tolerances. Every recorded trace carries
  // them in its options (the exporter writes them as literals), and the
  // trace reader rejects a recording made with other values.

  /// Convergence tolerance on the common utility level.
  static constexpr double kLevelTolerance = 1e-4;
  /// Probe step used to detect resource-bottlenecked entities.
  static constexpr double kProbeDelta = 1e-3;
  /// Bisection steps per water-fill round (and per node split).
  static constexpr int kBisectionIters = 48;

  struct Options {
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
  /// Process-unique id; names this distributor as a scratch's owner.
  std::uint64_t id_;
  /// Current-stage max speed per snapshot job: the cap of its instance.
  std::vector<MHz> stage_max_;
  std::unique_ptr<HypotheticalRpf> hypothetical_;
  /// Scratch for the one-argument Distribute overload.
  mutable DistributorScratch scratch_;

  /// Reads the fill entities and their instance edges off `p` into
  /// `scratch` and encodes them as scratch.fill_key. Builds no RPF.
  void ReadTopology(const PlacementMatrix& p,
                    DistributorScratch& scratch) const;
  /// Runs the water-fill for the topology in `scratch` and stores its
  /// outcome in the fill memo under `hash`; returns the entry.
  int SolveFill(DistributorScratch& scratch, std::uint64_t hash) const;
  std::vector<FillEntity> BuildEntities(DistributorScratch& scratch) const;
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
  /// Routes demands with a cold max-flow into scratch.routing (one value
  /// per instance edge), whether or not all demand fits; returns the exact
  /// verdict.
  bool RouteDemands(const std::vector<MHz>& demands,
                    DistributorScratch& scratch) const;
  /// Grants `share` on `node` to its local jobs through the split memo.
  void AssignNodeShare(std::span<const int> local_jobs, int node, MHz share,
                       DistributorScratch& scratch,
                       DistributionResult& result) const;
  /// Equalize local jobs' completion RPFs within one node's batch share.
  /// `local_jobs` holds the snapshot job indices hosted on `node`, in
  /// ascending order. Writes (grant, utility) per job to `out`.
  void DecomposeNodeShare(std::span<const int> local_jobs, int node,
                          MHz share, std::vector<double>& out) const;
};

}  // namespace mwp
