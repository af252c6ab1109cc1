// Per-cycle snapshot of the system handed to the placement controller.
//
// Every control cycle the APC freezes the state it reasons about: the
// cluster, every incomplete job (placed, queued or suspended) and every
// transactional application with its current workload intensity. Entities
// get snapshot-local indices — jobs first, then transactional apps — which
// index the placement and load matrices used by the optimizer.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "batch/job.h"
#include "batch/job_queue.h"
#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "cluster/vm_cost_model.h"
#include "common/units.h"
#include "core/constraints.h"
#include "web/transactional_app.h"

namespace mwp {

/// Frozen view of one batch job.
struct JobView {
  AppId id = kInvalidApp;
  const JobProfile* profile = nullptr;
  JobGoal goal;
  Megacycles work_done = 0.0;
  JobStatus status = JobStatus::kNotStarted;
  NodeId current_node = kInvalidNode;
  /// End of an in-flight VM operation (absolute time); 0 when idle.
  Seconds overhead_until = 0.0;
  /// Latency charged if the controller newly places this job this cycle
  /// (boot for not-started, suspend+resume already paid split for suspended).
  Seconds place_overhead = 0.0;
  /// Extra latency charged if a placed instance is migrated.
  Seconds migrate_overhead = 0.0;
  Megabytes memory = 0.0;
  MHz max_speed = 0.0;  ///< current stage ω_max
  MHz min_speed = 0.0;  ///< current stage ω_min

  bool placed() const {
    return status == JobStatus::kRunning || status == JobStatus::kPaused;
  }
};

/// Frozen view of one transactional application.
struct TxView {
  AppId id = kInvalidApp;
  const TransactionalApp* app = nullptr;
  double arrival_rate = 0.0;  ///< λ measured by the router this cycle
  Megabytes memory = 0.0;     ///< load-independent demand per instance
  int max_instances = 0;      ///< 0 = one per node
  std::vector<NodeId> current_nodes;
};

class PlacementSnapshot {
 public:
  PlacementSnapshot(const ClusterSpec* cluster, Seconds now,
                    Seconds control_cycle, std::vector<JobView> jobs,
                    std::vector<TxView> tx_apps);

  /// One transactional app input for Capture.
  struct TxInput {
    const TransactionalApp* app = nullptr;
    double arrival_rate = 0.0;
    std::vector<NodeId> current_nodes;
  };

  /// Build from live objects: all incomplete jobs in `queue`, the given
  /// transactional apps with their arrival rates and current instance
  /// placements, VM costs from `costs`.
  static PlacementSnapshot Capture(const ClusterSpec& cluster, Seconds now,
                                   Seconds control_cycle, JobQueue& queue,
                                   const VmCostModel& costs,
                                   const std::vector<TxInput>& tx_apps = {});

  const ClusterSpec& cluster() const { return *cluster_; }
  Seconds now() const { return now_; }
  Seconds control_cycle() const { return control_cycle_; }

  /// Node availability as captured when the snapshot was built. The live
  /// cluster's health may change mid-cycle (fault injection); the optimizer
  /// must reason about one consistent view, so it reads these, never the
  /// cluster directly.
  bool NodeOnline(int node) const {
    return node_online_.at(static_cast<std::size_t>(node));
  }
  MHz NodeAvailableCpu(int node) const {
    return node_available_cpu_.at(static_cast<std::size_t>(node));
  }
  Megabytes NodeAvailableMemory(int node) const {
    return node_available_memory_.at(static_cast<std::size_t>(node));
  }
  int NumOnlineNodes() const;

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  int num_tx() const { return static_cast<int>(tx_apps_.size()); }
  /// Total entity count = jobs + transactional apps.
  int num_entities() const { return num_jobs() + num_tx(); }
  int num_nodes() const { return cluster_->num_nodes(); }

  const JobView& job(int j) const { return jobs_.at(static_cast<std::size_t>(j)); }
  const TxView& tx(int w) const { return tx_apps_.at(static_cast<std::size_t>(w)); }
  const std::vector<JobView>& jobs() const { return jobs_; }
  const std::vector<TxView>& tx_apps() const { return tx_apps_; }

  bool IsJobEntity(int entity) const { return entity < num_jobs(); }
  int EntityOfJob(int j) const { return j; }
  int EntityOfTx(int w) const { return num_jobs() + w; }
  /// Job index of a job entity; checks the entity is a job.
  int JobOfEntity(int entity) const;
  int TxOfEntity(int entity) const;

  /// Memory demand of one instance of the entity.
  Megabytes EntityMemory(int entity) const;

  /// The placement currently in effect (entities x nodes).
  const PlacementMatrix& current_placement() const { return current_; }

  /// Free memory on `node` under placement `p`: the node's available
  /// memory minus its residents' memory, summed in ascending entity order.
  Megabytes FreeMemory(const SparsePlacement& p, int node) const;

  /// Install policy constraints (pinning, anti-collocation). The object is
  /// copied; IsFeasible enforces it from then on.
  void set_constraints(PlacementConstraints constraints);
  const PlacementConstraints& constraints() const { return constraints_; }

  /// Application id of a snapshot entity.
  AppId EntityAppId(int entity) const;

  /// Per-entity temporal-fairness credits (Karma objective), frozen into the
  /// snapshot by the controller's ledger at capture time. Empty means "no
  /// credits" (every entity at zero) — the default, and what every
  /// non-Karma objective sees. When set, the vector must have exactly
  /// num_entities() entries, indexed like the placement matrix.
  void set_fairness_credits(std::vector<double> credits);
  const std::vector<double>& fairness_credits() const {
    return fairness_credits_;
  }

  /// Replace the node-availability vectors frozen at construction. Used by
  /// SnapshotSlice: a per-cell snapshot is built over a freshly constructed
  /// cell ClusterSpec (whose health is all-online by default), then inherits
  /// the *frozen* health of the global snapshot it was sliced from — the
  /// optimizer must see one consistent capture, never a re-read of the live
  /// cluster. All three vectors must have num_nodes() entries.
  void OverrideNodeAvailability(std::vector<bool> online,
                                std::vector<MHz> cpu,
                                std::vector<Megabytes> memory);

  /// True when `p` respects every node's memory capacity, places nothing on
  /// a node that was offline at capture time, and satisfies the per-entity
  /// instance rules (jobs: at most one instance; tx: at most one per node
  /// and at most max_instances overall) and the policy constraints. The
  /// rules are checked node by node (NodesFeasible over every node).
  bool IsFeasible(const PlacementMatrix& p) const;
  bool IsFeasible(const SparsePlacement& p) const;

  /// The same rules, checked only on `nodes` for their residents: the
  /// node's memory and online state, each resident's instance rules and
  /// pins, and the separations among the residents. When `p` differs from a
  /// feasible placement only on `nodes`, this is IsFeasible(p) at the cost
  /// of those nodes' residents.
  bool NodesFeasible(const SparsePlacement& p,
                     std::span<const int> nodes) const;

 private:
  const ClusterSpec* cluster_;
  Seconds now_;
  Seconds control_cycle_;
  std::vector<JobView> jobs_;
  std::vector<TxView> tx_apps_;
  PlacementMatrix current_;
  PlacementConstraints constraints_;
  /// The constraints' separations as entity pairs, for the entities of this
  /// snapshot (pairs with a side absent from the snapshot are dropped).
  std::vector<std::pair<int, int>> separated_entities_;
  /// Per-entity instance memory, precomputed — FreeMemory runs on the
  /// optimizer's hot path (every feasibility probe of every candidate).
  std::vector<Megabytes> entity_memory_;
  /// Karma credits frozen at capture time (see set_fairness_credits).
  std::vector<double> fairness_credits_;
  /// Node health frozen at capture time (see NodeOnline above).
  std::vector<bool> node_online_;
  std::vector<MHz> node_available_cpu_;
  std::vector<Megabytes> node_available_memory_;

  /// The feasibility rules for one node's residents.
  bool NodeFeasible(const SparsePlacement& p, int node) const;
};

/// Instant at which job `jv` would (re)start executing if hosted on
/// `target_node` under a candidate placement — the snapshot's now plus any
/// VM boot/resume/migrate latency still to be paid.
Seconds JobExecStart(const PlacementSnapshot& snap, const JobView& jv,
                     NodeId target_node);

}  // namespace mwp
