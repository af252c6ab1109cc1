// APC controller: binds the placement optimizer to the simulated system.
//
// The controller runs in a periodic control loop (§3.1): every T seconds it
// advances the simulated jobs to the current instant, snapshots the system,
// runs the placement optimizer, and puts the decision into effect — placing,
// suspending, resuming and migrating job VMs (charging the measured
// virtualization costs) and resizing transactional application clusters.
// Per-cycle statistics feed the experiment harness (Figures 2, 6, 7).
//
// Threading contract: the controller is confined to its simulation's
// thread. Every entry point — RunCycle, OnJobSubmitted, OnNodeFault —
// takes the Simulation and executes inside a simulation event (directly,
// or through the src/svc service's Pump), so an OnNodeFault repair
// "racing" a control cycle is serialized by the event queue, never truly
// concurrent. The only intra-controller concurrency is inside
// PlacementOptimizer's candidate search, whose sharing rules live with
// that class; cross-controller concurrency (several simulations in worker
// threads) is safe because controllers share no mutable state except the
// internally synchronized logger. The TSan lane's stress tests pin both
// properties down.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch/job_queue.h"
#include "cluster/cluster.h"
#include "cluster/vm_cost_model.h"
#include "common/stats.h"
#include "core/placement_optimizer.h"
#include "core/sharded_optimizer.h"
#include "obs/cycle_trace.h"
#include "obs/metrics.h"
#include "obs/metrics_ring.h"
#include "sim/simulation.h"
#include "web/request_router.h"
#include "web/transactional_app.h"
#include "web/work_profiler.h"
#include "web/workload_generator.h"

namespace mwp {

/// Per-job detail of one control cycle (recorded when
/// Config::record_job_details is set; used by the §4.3 example trace).
struct JobCycleDetail {
  AppId id = kInvalidApp;
  Megacycles work_done = 0.0;      ///< α* at cycle start
  Megacycles outstanding = 0.0;    ///< α − α* at cycle start
  bool placed = false;
  MHz allocation = 0.0;            ///< this cycle's allocation
  Utility predicted_utility = 0.0; ///< hypothetical RP under the decision
  MHz future_speed = 0.0;          ///< W-matrix interpolated future speed
};

/// One control cycle's observable state.
struct CycleStats {
  Seconds time = 0.0;
  /// Mean / min predicted (hypothetical) relative performance over all
  /// incomplete jobs; NaN when no jobs are in the system.
  double avg_job_rp = 0.0;
  double min_job_rp = 0.0;
  int num_jobs = 0;
  int running_jobs = 0;
  int queued_jobs = 0;
  int suspended_jobs = 0;
  MHz batch_allocation = 0.0;
  MHz tx_allocation = 0.0;
  /// Fraction of the cluster's CPU allocated to some workload this cycle —
  /// the utilization the paper's consolidation argument is about (§1).
  double cluster_utilization = 0.0;
  int starts = 0;
  int stops = 0;
  int suspends = 0;
  int resumes = 0;
  int migrations = 0;
  int evaluations = 0;
  /// VM operations vetoed by Config::vm_operation_oracle since the previous
  /// cycle (the affected starts/resumes/migrates were skipped and retried).
  int failed_operations = 0;
  bool shortcut = false;
  Seconds solver_seconds = 0.0;  ///< wall-clock time of the optimizer
  /// Sharded solve (Config::shard_cell_size > 0): cells solved this cycle
  /// (0 = monolithic), accepted cross-cell job migrations, and wall-clock
  /// solve time per cell (re-solves included).
  int num_cells = 0;
  int cross_cell_migrations = 0;
  std::vector<Seconds> cell_solver_seconds;
  /// Per transactional app (same order as registration).
  std::vector<Utility> tx_utilities;
  std::vector<Seconds> tx_response_times;
  std::vector<MHz> tx_allocations;
  std::vector<double> tx_arrival_rates;
  /// Router view (overload protection): request flow admitted / shed.
  std::vector<double> tx_admitted_rates;
  std::vector<double> tx_rejected_rates;
  /// Populated only when Config::record_job_details is true.
  std::vector<JobCycleDetail> job_details;
};

/// Outcome of one out-of-band repair cycle (OnNodeFault).
struct RepairStats {
  Seconds time = 0.0;
  /// Placed jobs found dead on offline nodes and re-queued by the repair
  /// itself (normally 0: the fault injector already crashed them).
  int jobs_requeued = 0;
  int tx_displaced = 0;      ///< transactional instances lost to the fault
  int tx_replaced = 0;       ///< ... restarted on surviving nodes
  int job_placements = 0;    ///< jobs (re)started by the repair dispatch
  int failed_operations = 0; ///< restarts vetoed by the operation oracle
};

class ApcController {
 public:
  struct Config {
    Seconds control_cycle = 600.0;
    VmCostModel costs = VmCostModel::PaperMeasured();
    PlacementOptimizer::Options optimizer;
    /// Sharded optimizer: 0 solves the whole cluster monolithically; > 0
    /// partitions it into cells of this many nodes and runs
    /// ShardedPlacementOptimizer (per-cell solves in parallel plus the
    /// bounded cross-cell rebalance), with `optimizer` above as the
    /// per-cell search options and ShardedPlacementOptimizer::Options'
    /// defaults for the partition seed, cell threads and cross-cell move
    /// bound.
    int shard_cell_size = 0;
    /// Policy constraints (pinning, anti-collocation) enforced by every
    /// placement decision, including mid-cycle dispatch.
    PlacementConstraints constraints;
    /// Close the work-profiler loop (§3.1): per cycle, the profiler observes
    /// each transactional app's admitted throughput and consumed CPU and
    /// re-estimates its per-request demand; the *estimate* (not the spec's
    /// true value) then drives placement. Off by default so experiments use
    /// the exact published models.
    bool use_work_profiler = false;
    /// Also record per-job allocations and predictions each cycle (heavier;
    /// meant for small illustrative runs).
    bool record_job_details = false;
    /// Churn bound for an out-of-band repair cycle: at most this many
    /// placement changes (transactional restarts + job placements) per
    /// OnNodeFault call. The next periodic cycle finishes the rest.
    int repair_max_changes = 8;
    /// Fault hook: consulted before every VM start/resume/migrate; returning
    /// true makes the operation fail (the VM does not come up; the job stays
    /// queued/suspended or on its old node, and the controller retries on a
    /// later dispatch or cycle). Unset = operations always succeed. Wired to
    /// FaultInjector::ShouldFailOperation by fault-injection experiments.
    std::function<bool(PlacementChange::Kind, AppId)> vm_operation_oracle;
    /// Observability sinks, both optional and off by default (no per-cycle
    /// work when unset). Non-owning; must outlive the controller. `trace`
    /// receives one CycleTrace per control cycle; `metrics` receives the
    /// apc.* counters, gauges and the solver-time histogram.
    obs::TraceRecorder* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional snapshot ring fed once per cycle (requires `metrics`): the
    /// controller pushes the registry's snapshot stamped with the cycle's
    /// simulation time, then derives rate gauges (apc.rate.*) from the
    /// ring's window back into the registry. Non-owning; must outlive the
    /// controller.
    obs::MetricsRing* metrics_ring = nullptr;
    /// Stamped into every CycleTrace (schema v2): identifies this run when
    /// several runs' records end up in one export (sweeps).
    std::string trace_run_id;
    /// Also record each cycle's full optimizer input and committed decision
    /// (CycleInputRecord / CycleDecisionRecord) so the run can be replayed
    /// by src/replay. Heavier; off by default.
    bool trace_full = false;
  };

  ApcController(const ClusterSpec* cluster, JobQueue* queue, Config config);

  /// Register a transactional application with its workload intensity
  /// profile. Must be called before the first cycle.
  void AddTransactionalApp(TransactionalAppSpec spec,
                           std::shared_ptr<const ArrivalRateProfile> rate);

  /// Schedule the control loop on `sim`, first firing at `first_cycle`.
  void Attach(Simulation& sim, Seconds first_cycle = 0.0);

  /// Execute one control cycle at the simulation's current time.
  void RunCycle(Simulation& sim);

  /// Notify the controller of a job submission. The paper's job scheduler
  /// acts between control cycles with the APC as advisor (§3.1): a light
  /// event-driven dispatch starts queued jobs on capacity that is free
  /// right now, without touching running workload; the next full cycle
  /// rebalances. Jobs are considered lowest-relative-performance-first.
  void OnJobSubmitted(Simulation& sim);

  /// Advance job execution to `to` without making placement decisions
  /// (used to flush the final partial cycle at the end of an experiment).
  void AdvanceJobsTo(Seconds to);

  /// Out-of-band repair cycle, run at the instant a node fault is detected
  /// instead of waiting for the periodic tick. Re-queues any placed jobs
  /// found on offline nodes (checkpoint rollback), restarts displaced
  /// transactional instances on surviving capacity, and refills freed
  /// capacity with queued jobs — all under Config::repair_max_changes.
  /// Fault-injection experiments call this from a FaultListener.
  void OnNodeFault(Simulation& sim);

  /// Tags the next committed cycle's trace record ("event", "repair", ...).
  /// Empty (the default) marks a periodic cycle and keeps exports
  /// byte-identical to pre-service traces; the tag is consumed by the next
  /// RunCycle.
  void set_next_cycle_trigger(std::string trigger) {
    next_cycle_trigger_ = std::move(trigger);
  }

  const std::vector<CycleStats>& cycles() const { return cycles_; }
  const std::vector<RepairStats>& repairs() const { return repairs_; }
  /// Karma credit ledger (empty unless Config's optimizer objective is
  /// kKarma): per-application credits carried across control cycles.
  /// Updated once per cycle; keyed map so iteration is deterministic.
  const std::map<AppId, double>& karma_credits() const {
    return karma_credits_;
  }
  int total_placement_changes() const { return total_changes_; }
  int num_tx_apps() const { return static_cast<int>(tx_apps_.size()); }
  const TransactionalApp& tx_app(int i) const {
    return *tx_apps_.at(static_cast<std::size_t>(i)).app;
  }
  /// Nodes currently running an instance of transactional app `i`.
  const std::vector<NodeId>& tx_instances(int i) const {
    return tx_apps_.at(static_cast<std::size_t>(i)).instances;
  }

 private:
  /// Product of a cycle's capture phase: the frozen optimizer input plus
  /// the per-app arrival rates the commit bookkeeping needs.
  struct CycleCapture {
    Seconds now = 0.0;
    PlacementSnapshot snapshot;
    std::vector<PlacementSnapshot::TxInput> tx_inputs;
  };

  /// Product of a cycle's solve phase.
  struct CycleSolution {
    PlacementOptimizer::Result result;
    int num_cells = 0;
    int cross_cell_migrations = 0;
    std::vector<Seconds> cell_solver_seconds;
    Seconds solver_seconds = 0.0;  ///< wall-clock time of the optimizer
  };

  struct ManagedTx {
    std::unique_ptr<TransactionalApp> app;     ///< ground truth
    std::shared_ptr<const ArrivalRateProfile> rate;
    std::vector<NodeId> instances;
    WorkProfiler profiler{/*forgetting=*/0.95};
    /// Model actually handed to the snapshot: the ground truth, or a copy
    /// whose demand is the profiler's current estimate.
    std::unique_ptr<TransactionalApp> estimated;
  };

  /// The app view used for placement this cycle (profiled or truth).
  const TransactionalApp& PlacementView(const ManagedTx& tx) const;

  // RunCycle's three phases, run back-to-back at one instant.
  /// Freeze the system: advance jobs to `now`, reconcile offline nodes, and
  /// snapshot cluster/jobs/transactional demand.
  CycleCapture CaptureCycle(Seconds now);
  /// Run the placement optimizer (monolithic or sharded, per Config) on a
  /// captured snapshot.
  CycleSolution SolveCycle(const PlacementSnapshot& snapshot) const;
  /// Put the decision into effect at the capture instant, record stats,
  /// traces and metrics, and re-arm the completion watch.
  void CommitCycle(const CycleCapture& capture, CycleSolution solution,
                   Simulation& sim);

  /// Start queued/suspended jobs on currently unallocated capacity, at most
  /// `max_placements` of them. Returns the number of jobs placed.
  int QuickDispatch(Simulation& sim, int max_placements = kUnbounded);
  /// Consult the operation oracle; counts and reports a vetoed operation.
  bool OperationFails(PlacementChange::Kind kind, AppId app);
  /// Re-queue placed jobs whose node has gone offline (defence in depth —
  /// the fault injector normally crashed them already). Returns the count.
  int CrashJobsOnOfflineNodes(Seconds now);
  /// Arm an event at the earliest projected completion of a placed job, so
  /// freed capacity is refilled without waiting for the next cycle.
  void ArmCompletionWatch(Simulation& sim);
  /// Per-node free memory and unallocated CPU under the live state.
  void ComputeFreeResources(std::vector<Megabytes>& mem,
                            std::vector<MHz>& cpu) const;

  /// Emit the cycle's CycleTrace and metrics updates (no-op unless a sink
  /// is configured). `stats` must be fully populated for the cycle;
  /// `snapshot` is the optimizer input of the cycle, serialized into the
  /// trace when Config::trace_full is set.
  void RecordObservability(const CycleStats& stats,
                           const PlacementOptimizer::Result& result,
                           const PlacementSnapshot& snapshot);
  /// Current cluster health, as a trace summary.
  obs::NodeHealthSummary HealthSummary() const;

  /// Advance the Karma credit ledger after a committed decision: entities
  /// allocated less than the cycle's fair share earn credits, entities
  /// allocated more spend them (clamped to [0, karma_cap]). No-op unless
  /// the Karma objective is active.
  void UpdateKarmaCredits(const PlacementSnapshot& snapshot,
                          const PlacementOptimizer::Result& result);

  static constexpr int kUnbounded = 1 << 30;

  const ClusterSpec* cluster_;
  JobQueue* queue_;
  Config config_;
  std::vector<ManagedTx> tx_apps_;
  RequestRouter router_;
  Seconds last_advance_ = 0.0;
  std::vector<CycleStats> cycles_;
  std::vector<RepairStats> repairs_;
  int total_changes_ = 0;
  /// CPU routed to transactional instances per node in the last cycle.
  std::vector<MHz> tx_node_loads_;
  EventHandle completion_watch_;
  /// Quick-dispatch actions since the last cycle, folded into the next
  /// CycleStats so per-cycle accounting stays complete.
  int pending_quick_starts_ = 0;
  int pending_quick_resumes_ = 0;
  int pending_failed_ops_ = 0;
  /// Control cycles run so far (CycleTrace sequence numbers).
  int cycle_index_ = 0;
  /// Trigger tag for the next committed cycle's trace record; empty =
  /// periodic (legacy exports unchanged). Consumed by CommitCycle.
  std::string next_cycle_trigger_;
  /// Karma credit ledger (see karma_credits()). std::map, not unordered:
  /// CaptureCycle serializes it into snapshots and traces, so iteration
  /// order must be deterministic (AUD-D1).
  std::map<AppId, double> karma_credits_;
};

}  // namespace mwp
