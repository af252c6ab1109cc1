#include "core/apc_controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/log.h"
#include "core/feasibility_flow.h"
#include "core/snapshot.h"
#include "obs/stopwatch.h"

namespace mwp {
namespace {

/// The first broken invariant of a solver result about to be committed, or
/// "" when it holds: the placement is feasible (memory, online nodes, at
/// most one instance per job and max_instances per tx app, policy
/// constraints); its sparse loads cover exactly the placed cells and sum
/// to each entity's total; and no node is routed more than its available
/// CPU. Debug builds check it after every commit.
std::string CommitInvariantViolation(const PlacementSnapshot& snapshot,
                                     const PlacementOptimizer::Result& result) {
  std::ostringstream os;
  const SparsePlacement placement(result.placement);
  if (!snapshot.IsFeasible(placement)) return "placement is infeasible";
  const DistributionResult& dist = result.evaluation.distribution;
  std::vector<MHz> node_load(static_cast<std::size_t>(snapshot.num_nodes()),
                             0.0);
  std::size_t next = 0;
  for (int e = 0; e < snapshot.num_entities(); ++e) {
    MHz sum = 0.0;
    int cells = 0;
    for (const SparsePlacement::Cell& c : placement.NodesOf(e)) {
      if (next >= dist.loads.size() || dist.loads[next].entity != e ||
          dist.loads[next].node != c.index) {
        os << "no load entry for entity " << e << " on node " << c.index;
        return os.str();
      }
      sum += dist.loads[next].load;
      node_load[static_cast<std::size_t>(c.index)] += dist.loads[next].load;
      ++next;
      ++cells;
    }
    const MHz total = dist.totals[static_cast<std::size_t>(e)];
    if (std::abs(sum - total) > kFeasibilityTol + cells * kFlowEps) {
      os << "entity " << e << " loads sum to " << sum << ", total " << total;
      return os.str();
    }
  }
  if (next != dist.loads.size()) return "load entries for unplaced cells";
  for (int n = 0; n < snapshot.num_nodes(); ++n) {
    if (node_load[static_cast<std::size_t>(n)] >
        snapshot.NodeAvailableCpu(n) + kFeasibilityTol) {
      os << "node " << n << " routed " << node_load[static_cast<std::size_t>(n)]
         << " MHz of " << snapshot.NodeAvailableCpu(n);
      return os.str();
    }
  }
  return "";
}

}  // namespace

ApcController::ApcController(const ClusterSpec* cluster, JobQueue* queue,
                             Config config)
    : cluster_(cluster), queue_(queue), config_(std::move(config)) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(queue_ != nullptr);
  MWP_CHECK(config_.control_cycle > 0.0);
}

void ApcController::AddTransactionalApp(
    TransactionalAppSpec spec, std::shared_ptr<const ArrivalRateProfile> rate) {
  MWP_CHECK(rate != nullptr);
  ManagedTx tx;
  tx.app = std::make_unique<TransactionalApp>(std::move(spec));
  tx.rate = std::move(rate);
  tx_apps_.push_back(std::move(tx));
}

void ApcController::Attach(Simulation& sim, Seconds first_cycle) {
  sim.SchedulePeriodic(first_cycle, config_.control_cycle,
                       [this](Simulation& s) { RunCycle(s); });
}

void ApcController::AdvanceJobsTo(Seconds to) {
  MWP_CHECK(to >= last_advance_);
  for (Job* job : queue_->Placed()) {
    job->AdvanceTo(last_advance_, to);
  }
  last_advance_ = to;
}

void ApcController::RunCycle(Simulation& sim) {
  const CycleCapture capture = CaptureCycle(sim.now());
  CommitCycle(capture, SolveCycle(capture.snapshot), sim);
}

ApcController::CycleCapture ApcController::CaptureCycle(Seconds now) {
  AdvanceJobsTo(now);

  // Defence in depth against node faults nobody repaired mid-cycle: jobs
  // still "placed" on a dead node are re-queued with checkpoint rollback,
  // and transactional instances there are forgotten, before the snapshot is
  // taken — the optimizer must never reason from a phantom placement.
  CrashJobsOnOfflineNodes(now);
  for (ManagedTx& tx : tx_apps_) {
    std::erase_if(tx.instances,
                  [&](NodeId n) { return !cluster_->node_online(n); });
  }

  std::vector<PlacementSnapshot::TxInput> tx_inputs;
  tx_inputs.reserve(tx_apps_.size());
  for (const ManagedTx& tx : tx_apps_) {
    tx_inputs.push_back(
        {&PlacementView(tx), tx.rate->RateAt(now), tx.instances});
  }

  // Snapshot order: jobs in submission order, then tx apps in registration
  // order — the same order CommitCycle uses to apply decisions.
  PlacementSnapshot snapshot = PlacementSnapshot::Capture(
      *cluster_, now, config_.control_cycle, *queue_, config_.costs,
      tx_inputs);
  snapshot.set_constraints(config_.constraints);
  if (config_.optimizer.evaluator.objective.kind ==
      FairnessObjectiveKind::kKarma) {
    // Freeze the ledger into the snapshot: entities absent from the ledger
    // (first sighting) start at zero credits.
    std::vector<double> credits(
        static_cast<std::size_t>(snapshot.num_entities()), 0.0);
    for (int e = 0; e < snapshot.num_entities(); ++e) {
      const auto it = karma_credits_.find(snapshot.EntityAppId(e));
      if (it != karma_credits_.end()) {
        credits[static_cast<std::size_t>(e)] = it->second;
      }
    }
    snapshot.set_fairness_credits(std::move(credits));
  }
  return CycleCapture{now, std::move(snapshot), std::move(tx_inputs)};
}

ApcController::CycleSolution ApcController::SolveCycle(
    const PlacementSnapshot& snapshot) const {
  CycleSolution solution;
  const obs::Stopwatch stopwatch;
  if (config_.shard_cell_size > 0) {
    ShardedPlacementOptimizer::Options shard_options;
    shard_options.cell_size = config_.shard_cell_size;
    shard_options.cell = config_.optimizer;
    const ShardedPlacementOptimizer sharded(&snapshot, shard_options);
    ShardedPlacementOptimizer::Result sharded_result = sharded.Optimize();
    solution.result = std::move(sharded_result.global);
    solution.num_cells = sharded_result.num_cells;
    solution.cross_cell_migrations = sharded_result.cross_cell_migrations;
    solution.cell_solver_seconds = std::move(sharded_result.cell_solve_seconds);
  } else {
    const PlacementOptimizer optimizer(&snapshot, config_.optimizer);
    solution.result = optimizer.Optimize();
  }
  solution.solver_seconds = stopwatch.Elapsed();
  return solution;
}

void ApcController::CommitCycle(const CycleCapture& capture,
                                CycleSolution solution, Simulation& sim) {
  const PlacementSnapshot& snapshot = capture.snapshot;
  const PlacementOptimizer::Result& result = solution.result;
  MWP_DCHECK_MSG(CommitInvariantViolation(snapshot, result).empty(),
                 "committed solver result: "
                     << CommitInvariantViolation(snapshot, result));
  // The commit runs at the capture instant with no job advanced in
  // between, so the live incomplete jobs are exactly the captured ones, in
  // capture order: decisions apply as job j <-> entity j.
  const std::vector<Job*> jobs = queue_->Incomplete();
  MWP_DCHECK(static_cast<int>(jobs.size()) == snapshot.num_jobs());

  const Seconds now = capture.now;
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    Job* job = jobs[static_cast<std::size_t>(j)];
    const int entity = snapshot.EntityOfJob(j);
    const std::vector<int> nodes = result.placement.NodesOf(entity);
    const NodeId target = nodes.empty() ? kInvalidNode : nodes.front();
    const NodeId current = job->placed() ? job->node() : kInvalidNode;

    if (target == kInvalidNode) {
      if (job->placed()) {
        job->Suspend(now);
        job->ExtendOverhead(now +
                            config_.costs.SuspendCost(job->profile().max_memory()));
      }
      continue;
    }
    if (current == kInvalidNode) {
      const bool resume = job->status() == JobStatus::kSuspended;
      if (OperationFails(resume ? PlacementChange::Kind::kResume
                                : PlacementChange::Kind::kStart,
                         job->id())) {
        continue;  // VM never came up: still queued/suspended, retried later
      }
      const Seconds overhead = resume
                                   ? config_.costs.ResumeCost(
                                         job->profile().max_memory())
                                   : config_.costs.BootCost();
      job->Place(target, now, overhead);
    } else if (current != target) {
      if (!OperationFails(PlacementChange::Kind::kMigrate, job->id())) {
        job->Place(target, now,
                   config_.costs.MigrateCost(job->profile().max_memory()));
      }
      // On failure the VM stays where it was; it keeps this cycle's
      // allocation and the next cycle re-plans from the true placement.
    }
    job->SetAllocation(
        result.evaluation.distribution.totals[static_cast<std::size_t>(entity)]);
  }

  // Apply transactional instance decisions. A newly started instance may be
  // vetoed by the operation oracle; the app then runs short one instance
  // until a later cycle retries.
  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    const int entity = snapshot.EntityOfTx(static_cast<int>(w));
    const std::vector<NodeId>& old_nodes = tx_apps_[w].instances;
    std::vector<NodeId> instances;
    for (int n = 0; n < snapshot.num_nodes(); ++n) {
      for (int k = 0; k < result.placement.at(entity, n); ++k) {
        const bool is_new =
            std::find(old_nodes.begin(), old_nodes.end(), n) == old_nodes.end();
        if (is_new && OperationFails(PlacementChange::Kind::kStart,
                                     tx_apps_[w].app->id())) {
          continue;
        }
        instances.push_back(n);
      }
    }
    tx_apps_[w].instances = std::move(instances);
  }

  // Bookkeeping.
  CycleStats stats;
  stats.time = now;
  stats.num_jobs = snapshot.num_jobs();
  double rp_sum = 0.0;
  double rp_min = std::numeric_limits<double>::infinity();
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    const double u =
        result.evaluation.entity_utilities[static_cast<std::size_t>(j)];
    rp_sum += u;
    rp_min = std::min(rp_min, u);
  }
  stats.avg_job_rp = snapshot.num_jobs() > 0
                         ? rp_sum / snapshot.num_jobs()
                         : std::numeric_limits<double>::quiet_NaN();
  stats.min_job_rp = snapshot.num_jobs() > 0
                         ? rp_min
                         : std::numeric_limits<double>::quiet_NaN();
  for (const Job* job : jobs) {
    switch (job->status()) {
      case JobStatus::kRunning:
        ++stats.running_jobs;
        break;
      case JobStatus::kNotStarted:
        ++stats.queued_jobs;
        break;
      case JobStatus::kSuspended:
        ++stats.suspended_jobs;
        break;
      case JobStatus::kPaused:
        ++stats.running_jobs;  // placed; counts against capacity
        break;
      case JobStatus::kCompleted:
        break;
    }
  }
  stats.batch_allocation = result.evaluation.batch_allocation;
  stats.tx_allocation = result.evaluation.tx_allocation;
  stats.cluster_utilization =
      (stats.batch_allocation + stats.tx_allocation) / cluster_->total_cpu();
  stats.starts += pending_quick_starts_;
  stats.resumes += pending_quick_resumes_;
  stats.failed_operations = pending_failed_ops_;
  pending_quick_starts_ = 0;
  pending_quick_resumes_ = 0;
  pending_failed_ops_ = 0;
  for (const PlacementChange& ch : result.evaluation.changes) {
    switch (ch.kind) {
      case PlacementChange::Kind::kStart:
        ++stats.starts;
        break;
      case PlacementChange::Kind::kStop:
        ++stats.stops;
        break;
      case PlacementChange::Kind::kSuspend:
        ++stats.suspends;
        break;
      case PlacementChange::Kind::kResume:
        ++stats.resumes;
        break;
      case PlacementChange::Kind::kMigrate:
        ++stats.migrations;
        break;
    }
  }
  total_changes_ += static_cast<int>(result.evaluation.changes.size());
  stats.evaluations = result.evaluations;
  stats.shortcut = result.used_shortcut;
  stats.solver_seconds = solution.solver_seconds;
  stats.num_cells = solution.num_cells;
  stats.cross_cell_migrations = solution.cross_cell_migrations;
  stats.cell_solver_seconds = std::move(solution.cell_solver_seconds);

  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    const int entity = snapshot.EntityOfTx(static_cast<int>(w));
    const double rate = capture.tx_inputs[w].arrival_rate;
    const MHz alloc =
        result.evaluation.distribution.totals[static_cast<std::size_t>(entity)];
    stats.tx_allocations.push_back(alloc);
    stats.tx_arrival_rates.push_back(rate);
    if (rate > 1e-12) {
      const Seconds rt = tx_apps_[w].app->ResponseTime(rate, alloc);
      stats.tx_response_times.push_back(rt);
      stats.tx_utilities.push_back(tx_apps_[w].app->UtilityAt(rate, alloc));
      // Router view: balance the flow over the instances' allocations and
      // record what overload protection admits vs sheds (§3.1).
      std::vector<MHz> instance_allocs;
      for (int n = 0; n < snapshot.num_nodes(); ++n) {
        if (result.placement.at(entity, n) > 0) {
          instance_allocs.push_back(
              result.evaluation.distribution.LoadAt(entity, n));
        }
      }
      const RoutingDecision routed =
          router_.Route(*tx_apps_[w].app, rate, instance_allocs);
      stats.tx_admitted_rates.push_back(routed.admitted_rate);
      stats.tx_rejected_rates.push_back(routed.rejected_rate);
      if (config_.use_work_profiler) {
        // The profiler sees what the nodes actually consumed serving the
        // admitted flow (ground truth demand, capped by the allocation) and
        // refines the estimate used for next cycle's placement.
        const MHz consumed = std::min(
            alloc,
            routed.admitted_rate * tx_apps_[w].app->spec().demand_per_request);
        tx_apps_[w].profiler.Observe(routed.admitted_rate, consumed);
        const Megacycles estimate =
            tx_apps_[w].profiler.EstimateDemandPerRequest();
        if (estimate > 0.0) {
          TransactionalAppSpec spec = tx_apps_[w].app->spec();
          spec.demand_per_request = estimate;
          tx_apps_[w].estimated =
              std::make_unique<TransactionalApp>(std::move(spec));
        }
      }
    } else {
      stats.tx_response_times.push_back(0.0);
      stats.tx_utilities.push_back(1.0);
      stats.tx_admitted_rates.push_back(0.0);
      stats.tx_rejected_rates.push_back(0.0);
    }
  }

  if (config_.record_job_details) {
    for (int j = 0; j < snapshot.num_jobs(); ++j) {
      const JobView& jv = snapshot.job(j);
      const int entity = snapshot.EntityOfJob(j);
      JobCycleDetail d;
      d.id = jv.id;
      d.work_done = jv.work_done;
      d.outstanding = jv.profile->RemainingWork(jv.work_done);
      d.placed = result.placement.InstanceCount(entity) > 0;
      d.allocation =
          result.evaluation.distribution.totals[static_cast<std::size_t>(entity)];
      d.predicted_utility =
          result.evaluation.entity_utilities[static_cast<std::size_t>(entity)];
      d.future_speed =
          result.evaluation.job_future_speeds[static_cast<std::size_t>(j)];
      stats.job_details.push_back(d);
    }
  }

  UpdateKarmaCredits(snapshot, result);
  RecordObservability(stats, result, snapshot);
  ++cycle_index_;
  next_cycle_trigger_.clear();

  cycles_.push_back(std::move(stats));
  MWP_LOG_DEBUG << "cycle t=" << now << " jobs=" << snapshot.num_jobs()
                << " evals=" << result.evaluations
                << " solver=" << solution.solver_seconds << "s";

  // Remember the transactional per-node loads so that mid-cycle dispatch
  // knows what is genuinely free, and watch for mid-cycle completions.
  // Per node, the apps' loads add in app order.
  tx_node_loads_.assign(static_cast<std::size_t>(cluster_->num_nodes()), 0.0);
  for (const InstanceLoad& l : result.evaluation.distribution.loads) {
    if (snapshot.IsJobEntity(l.entity)) continue;
    tx_node_loads_[static_cast<std::size_t>(l.node)] += l.load;
  }
  ArmCompletionWatch(sim);
}

void ApcController::UpdateKarmaCredits(
    const PlacementSnapshot& snapshot,
    const PlacementOptimizer::Result& result) {
  const FairnessObjectiveConfig& cfg = config_.optimizer.evaluator.objective;
  if (cfg.kind != FairnessObjectiveKind::kKarma) return;
  const int entities = snapshot.num_entities();
  if (entities == 0) {
    karma_credits_.clear();
    return;
  }
  // Fair share: the CPU the cluster had available at capture, split evenly
  // over every entity the controller reasoned about. Yielding below that
  // share earns credits proportional to the normalized shortfall; taking
  // more spends them. The ledger is rebuilt keyed by application id, so
  // completed entities drop out and iteration stays deterministic (std::map
  // ordered by id, matching snapshot serialization).
  MHz available = 0.0;
  for (int n = 0; n < snapshot.num_nodes(); ++n) {
    if (snapshot.NodeOnline(n)) available += snapshot.NodeAvailableCpu(n);
  }
  const MHz fair_share = available / entities;
  std::map<AppId, double> next;
  for (int e = 0; e < entities; ++e) {
    const AppId id = snapshot.EntityAppId(e);
    const MHz alloc =
        result.evaluation.distribution.totals[static_cast<std::size_t>(e)];
    double credits = 0.0;
    const auto it = karma_credits_.find(id);
    if (it != karma_credits_.end()) credits = it->second;
    if (fair_share > 0.0) {
      credits += cfg.karma_earn_rate * (fair_share - alloc) / fair_share;
    }
    next.emplace(id, std::clamp(credits, 0.0, cfg.karma_cap));
  }
  karma_credits_ = std::move(next);
}

obs::NodeHealthSummary ApcController::HealthSummary() const {
  obs::NodeHealthSummary health;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    switch (cluster_->node_state(n)) {
      case NodeState::kOnline:
        ++health.online;
        break;
      case NodeState::kDegraded:
        ++health.degraded;
        break;
      case NodeState::kOffline:
        ++health.offline;
        break;
    }
    health.available_cpu += cluster_->available_cpu(n);
    health.nominal_cpu += cluster_->node(n).total_cpu();
  }
  return health;
}

namespace {

/// Freezes the optimizer input of one cycle for replay (schema v2 "input").
/// Everything the optimizer reads is copied out of the snapshot it actually
/// saw; node health comes from the live cluster, which cannot have changed
/// since Capture (the event queue serializes faults against cycles).
obs::CycleInputRecord BuildInputRecord(const PlacementSnapshot& snapshot,
                                       const ApcController::Config& config) {
  const PlacementOptimizer::Options& options = config.optimizer;
  obs::CycleInputRecord in;
  in.now = snapshot.now();
  in.control_cycle = snapshot.control_cycle();

  const ClusterSpec& cluster = snapshot.cluster();
  in.nodes.reserve(static_cast<std::size_t>(cluster.num_nodes()));
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    obs::TraceNodeInput node;
    node.num_cpus = cluster.node(n).num_cpus;
    node.cpu_speed = cluster.node(n).cpu_speed_mhz;
    node.memory = cluster.node(n).memory_mb;
    node.state = static_cast<int>(cluster.node_state(n));
    node.speed_factor = cluster.node_state(n) == NodeState::kDegraded
                            ? cluster.node_speed_factor(n)
                            : 1.0;
    in.nodes.push_back(node);
  }

  in.jobs.reserve(static_cast<std::size_t>(snapshot.num_jobs()));
  for (const JobView& jv : snapshot.jobs()) {
    obs::TraceJobInput job;
    job.id = jv.id;
    job.submit_time = jv.goal.submit_time;
    job.desired_start = jv.goal.desired_start;
    job.completion_goal = jv.goal.completion_goal;
    job.work_done = jv.work_done;
    job.status = static_cast<int>(jv.status);
    job.current_node = jv.current_node;
    job.overhead_until = jv.overhead_until;
    job.place_overhead = jv.place_overhead;
    job.migrate_overhead = jv.migrate_overhead;
    job.memory = jv.memory;
    job.max_speed = jv.max_speed;
    job.min_speed = jv.min_speed;
    for (const JobStage& st : jv.profile->stages()) {
      job.stages.push_back({st.work, st.max_speed, st.min_speed, st.memory});
    }
    in.jobs.push_back(std::move(job));
  }

  in.tx_apps.reserve(static_cast<std::size_t>(snapshot.num_tx()));
  for (const TxView& tv : snapshot.tx_apps()) {
    const TransactionalAppSpec& spec = tv.app->spec();
    obs::TraceTxInput tx;
    tx.id = tv.id;
    tx.name = spec.name;
    tx.memory = spec.memory_per_instance;
    tx.response_time_goal = spec.response_time_goal;
    tx.demand_per_request = spec.demand_per_request;
    tx.min_response_time = spec.min_response_time;
    tx.saturation = spec.saturation_allocation;
    tx.max_instances = spec.max_instances;
    tx.arrival_rate = tv.arrival_rate;
    tx.current_nodes = tv.current_nodes;
    in.tx_apps.push_back(std::move(tx));
  }

  in.options.max_sweeps = options.max_sweeps;
  in.options.tie_tolerance = options.evaluator.tie_tolerance;
  in.options.batch_aggregate = options.evaluator.distributor.batch_aggregate;
  const ShardedPlacementOptimizer::Options shard_defaults;
  in.options.cell_size = config.shard_cell_size;
  in.options.partition_seed = shard_defaults.partition_seed;
  in.options.max_cross_cell_moves = shard_defaults.max_cross_cell_moves;
  in.options.objective = static_cast<int>(options.evaluator.objective.kind);
  in.options.karma_weight = options.evaluator.objective.karma_weight;
  in.options.karma_cap = options.evaluator.objective.karma_cap;
  in.options.karma_earn_rate = options.evaluator.objective.karma_earn_rate;
  in.options.pf_epsilon = options.evaluator.objective.pf_epsilon;
  in.fairness_credits = snapshot.fairness_credits();

  for (const auto& [app, nodes] : snapshot.constraints().pins()) {
    in.pins.push_back({app, nodes});
  }
  in.separations = snapshot.constraints().separations();
  return in;
}

/// Freezes the committed decision (schema v2 "decision"): non-zero placement
/// cells in row-major (entity, node) order plus per-entity totals.
obs::CycleDecisionRecord BuildDecisionRecord(
    const PlacementSnapshot& snapshot,
    const PlacementOptimizer::Result& result) {
  obs::CycleDecisionRecord decision;
  for (int e = 0; e < snapshot.num_entities(); ++e) {
    for (int n = 0; n < snapshot.num_nodes(); ++n) {
      const int count = result.placement.at(e, n);
      if (count > 0) decision.placement.push_back({e, n, count});
    }
  }
  decision.allocations = result.evaluation.distribution.totals;
  return decision;
}

}  // namespace

void ApcController::RecordObservability(
    const CycleStats& stats, const PlacementOptimizer::Result& result,
    const PlacementSnapshot& snapshot) {
  if (config_.trace == nullptr && config_.metrics == nullptr) return;

  if (config_.trace != nullptr) {
    obs::CycleTrace trace;
    trace.run_id = config_.trace_run_id;
    trace.cycle = cycle_index_;
    trace.time = stats.time;
    trace.rp_before = result.incumbent_utilities;
    trace.rp_after = result.evaluation.sorted_utilities;
    trace.avg_job_rp = stats.avg_job_rp;
    trace.min_job_rp = stats.min_job_rp;
    trace.num_jobs = stats.num_jobs;
    trace.running_jobs = stats.running_jobs;
    trace.queued_jobs = stats.queued_jobs;
    trace.suspended_jobs = stats.suspended_jobs;
    trace.batch_allocation = stats.batch_allocation;
    trace.tx_allocation = stats.tx_allocation;
    trace.cluster_utilization = stats.cluster_utilization;
    trace.starts = stats.starts;
    trace.stops = stats.stops;
    trace.suspends = stats.suspends;
    trace.resumes = stats.resumes;
    trace.migrations = stats.migrations;
    trace.failed_operations = stats.failed_operations;
    trace.evaluations = stats.evaluations;
    trace.shortcut = stats.shortcut;
    trace.solver_seconds = stats.solver_seconds;
    trace.cache_hits = result.cache_hits;
    trace.cache_misses = result.cache_misses;
    trace.distribute_calls = result.distribute_calls;
    trace.node_health = HealthSummary();
    trace.tx_utilities = stats.tx_utilities;
    trace.tx_allocations = stats.tx_allocations;
    trace.num_cells = stats.num_cells;
    trace.cross_cell_migrations = stats.cross_cell_migrations;
    trace.cell_solver_seconds = stats.cell_solver_seconds;
    trace.trigger = next_cycle_trigger_;
    if (config_.trace_full) {
      trace.input = BuildInputRecord(snapshot, config_);
      trace.decision = BuildDecisionRecord(snapshot, result);
    }
    config_.trace->Record(std::move(trace));
  }

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("apc.cycles").Increment();
    m.counter("apc.evaluations")
        .Increment(static_cast<std::uint64_t>(stats.evaluations));
    m.counter("apc.placement_changes")
        .Increment(static_cast<std::uint64_t>(
            stats.starts + stats.stops + stats.suspends + stats.resumes +
            stats.migrations));
    m.counter("apc.failed_operations")
        .Increment(static_cast<std::uint64_t>(stats.failed_operations));
    m.counter("apc.cache_hits").Increment(result.cache_hits);
    m.counter("apc.cache_misses").Increment(result.cache_misses);
    m.counter("apc.distribute_calls").Increment(result.distribute_calls);
    if (stats.shortcut) m.counter("apc.shortcut_cycles").Increment();
    m.gauge("apc.cluster_utilization").Set(stats.cluster_utilization);
    if (stats.num_jobs > 0) m.gauge("apc.avg_job_rp").Set(stats.avg_job_rp);
    m.histogram("apc.solver_seconds").Observe(stats.solver_seconds);
    if (stats.num_cells > 0) {
      m.gauge("apc.cells").Set(stats.num_cells);
      m.counter("apc.cross_cell_migrations")
          .Increment(static_cast<std::uint64_t>(stats.cross_cell_migrations));
      obs::Histogram& cell_hist = m.histogram("apc.cell_solver_seconds");
      for (Seconds s : stats.cell_solver_seconds) cell_hist.Observe(s);
    }

    // Snapshot ring + derived rates: push this cycle's registry state, then
    // read counter deltas/rates over the ring's window back into rate
    // gauges. Rates lag the push by design (they describe completed
    // cycles), so a ring snapshot carries the previous cycle's rates.
    if (config_.metrics_ring != nullptr) {
      obs::MetricsRing& ring = *config_.metrics_ring;
      ring.Push(stats.time, m.Snapshot());
      const auto set_rate = [&m](const char* name,
                                 const std::optional<double>& value) {
        if (value) m.gauge(name).Set(*value);
      };
      set_rate("apc.rate.evaluations_per_sec",
               ring.CounterRate("apc.evaluations"));
      set_rate("apc.rate.placement_changes_per_cycle",
               ring.CounterDelta("apc.placement_changes"));
      set_rate("apc.rate.migrations_per_cycle",
               ring.CounterDelta("apc.cross_cell_migrations"));
    }
  }
}

const TransactionalApp& ApcController::PlacementView(
    const ManagedTx& tx) const {
  if (config_.use_work_profiler && tx.estimated != nullptr) {
    return *tx.estimated;
  }
  return *tx.app;
}

void ApcController::ComputeFreeResources(std::vector<Megabytes>& mem,
                                         std::vector<MHz>& cpu) const {
  const auto n_nodes = static_cast<std::size_t>(cluster_->num_nodes());
  mem.assign(n_nodes, 0.0);
  cpu.assign(n_nodes, 0.0);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    // Health-aware capacity: an offline node offers nothing to mid-cycle
    // dispatch; a degraded node offers its scaled-down CPU.
    mem[n] = cluster_->available_memory(static_cast<NodeId>(n));
    cpu[n] = cluster_->available_cpu(static_cast<NodeId>(n));
    if (n < tx_node_loads_.size()) cpu[n] -= tx_node_loads_[n];
  }
  for (const ManagedTx& tx : tx_apps_) {
    for (NodeId node : tx.instances) {
      mem[static_cast<std::size_t>(node)] -= tx.app->spec().memory_per_instance;
    }
  }
  for (Job* job : queue_->Placed()) {
    mem[static_cast<std::size_t>(job->node())] -= job->profile().max_memory();
    cpu[static_cast<std::size_t>(job->node())] -= job->allocated_speed();
  }
}

void ApcController::OnJobSubmitted(Simulation& sim) { QuickDispatch(sim); }

bool ApcController::OperationFails(PlacementChange::Kind kind, AppId app) {
  if (!config_.vm_operation_oracle) return false;
  if (config_.vm_operation_oracle(kind, app)) {
    ++pending_failed_ops_;
    return true;
  }
  return false;
}

int ApcController::CrashJobsOnOfflineNodes(Seconds now) {
  int crashed = 0;
  for (Job* job : queue_->Placed()) {
    if (!cluster_->node_online(job->node())) {
      job->Crash(now);
      ++crashed;
    }
  }
  return crashed;
}

int ApcController::QuickDispatch(Simulation& sim, int max_placements) {
  const Seconds now = sim.now();
  AdvanceJobsTo(now);

  std::vector<Job*> waiting = queue_->AwaitingPlacement();
  if (waiting.empty() || max_placements <= 0) return 0;
  // Lowest relative performance first: the job whose achievable RP has
  // decayed the most is dispatched first. Under the Karma objective the
  // ranking uses the same biased (effective) utility the evaluator ranks
  // need by, so credits earned while waiting are redeemed at event-driven
  // dispatch too, not only at full control cycles.
  const FairnessObjectiveConfig& objective =
      config_.optimizer.evaluator.objective;
  const bool karma = objective.kind == FairnessObjectiveKind::kKarma;
  auto karma_bias = [&](const Job& job) -> double {
    const auto it = karma_credits_.find(job.id());
    if (it == karma_credits_.end()) return 0.0;
    return -objective.karma_weight *
           std::clamp(it->second, 0.0, objective.karma_cap) /
           objective.karma_cap;
  };
  std::stable_sort(waiting.begin(), waiting.end(),
                   [now, karma, &karma_bias](Job* a, Job* b) {
    if (!karma) {
      return a->MaxAchievableUtility(now) < b->MaxAchievableUtility(now);
    }
    return a->MaxAchievableUtility(now) + karma_bias(*a) <
           b->MaxAchievableUtility(now) + karma_bias(*b);
  });

  std::vector<Megabytes> free_mem;
  std::vector<MHz> free_cpu;
  ComputeFreeResources(free_mem, free_cpu);

  // Per-node application presence, for anti-collocation checks.
  std::vector<std::vector<AppId>> residents(free_cpu.size());
  if (!config_.constraints.empty()) {
    for (Job* placed : queue_->Placed()) {
      residents[static_cast<std::size_t>(placed->node())].push_back(
          placed->id());
    }
    for (const ManagedTx& tx : tx_apps_) {
      for (NodeId node : tx.instances) {
        residents[static_cast<std::size_t>(node)].push_back(tx.app->id());
      }
    }
  }
  auto allowed = [&](const Job& job, std::size_t n) {
    if (config_.constraints.empty()) return true;
    if (!config_.constraints.AllowsNode(job.id(), static_cast<NodeId>(n))) {
      return false;
    }
    for (AppId other : residents[n]) {
      if (!config_.constraints.AllowsCollocation(job.id(), other)) {
        return false;
      }
    }
    return true;
  };

  int placed_count = 0;
  for (Job* job : waiting) {
    if (placed_count >= max_placements) break;
    const Megabytes mem = job->profile().max_memory();
    const int stage =
        std::min(job->current_stage(), job->profile().num_stages() - 1);
    const MHz max_speed = job->profile().stage(stage).max_speed;
    const MHz min_speed = job->profile().stage(stage).min_speed;
    // Pick the node offering the most usable speed; demand at least a
    // quarter of the job's cap so mid-cycle starts are worth their churn.
    int best_node = -1;
    MHz best_speed = std::max({0.25 * max_speed, min_speed, 1e-6});
    for (std::size_t n = 0; n < free_cpu.size(); ++n) {
      if (free_mem[n] + kEpsilon < mem) continue;
      if (!allowed(*job, n)) continue;
      const MHz usable = std::min(free_cpu[n], max_speed);
      if (usable >= best_speed) {
        best_speed = usable;
        best_node = static_cast<int>(n);
      }
    }
    if (best_node < 0) continue;
    const bool resume = job->status() == JobStatus::kSuspended;
    if (OperationFails(resume ? PlacementChange::Kind::kResume
                              : PlacementChange::Kind::kStart,
                       job->id())) {
      continue;  // VM failed to come up: job stays queued, retried later
    }
    const Seconds overhead =
        resume ? config_.costs.ResumeCost(mem) : config_.costs.BootCost();
    job->Place(best_node, now, overhead);
    job->SetAllocation(best_speed);
    free_mem[static_cast<std::size_t>(best_node)] -= mem;
    free_cpu[static_cast<std::size_t>(best_node)] -= best_speed;
    if (!config_.constraints.empty()) {
      residents[static_cast<std::size_t>(best_node)].push_back(job->id());
    }
    ++total_changes_;
    if (resume) {
      ++pending_quick_resumes_;
    } else {
      ++pending_quick_starts_;
    }
    ++placed_count;
  }
  if (placed_count > 0) ArmCompletionWatch(sim);
  return placed_count;
}

void ApcController::OnNodeFault(Simulation& sim) {
  const Seconds now = sim.now();
  AdvanceJobsTo(now);
  // pending_failed_ops_ also holds earlier quick dispatches' and repairs'
  // vetoes (it is folded into the next cycle's stats); this repair reports
  // only its own.
  const int failed_ops_before = pending_failed_ops_;

  RepairStats repair;
  repair.time = now;
  repair.jobs_requeued = CrashJobsOnOfflineNodes(now);

  // Forget transactional instances that died with their node; they are the
  // repair cycle's first priority because each lost instance directly cuts
  // the app's serving capacity.
  struct Displaced {
    std::size_t tx_index;
  };
  std::vector<Displaced> displaced;
  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    ManagedTx& tx = tx_apps_[w];
    const std::size_t before = tx.instances.size();
    std::erase_if(tx.instances,
                  [&](NodeId n) { return !cluster_->node_online(n); });
    for (std::size_t k = tx.instances.size(); k < before; ++k) {
      displaced.push_back({w});
    }
  }
  repair.tx_displaced = static_cast<int>(displaced.size());

  // The tx load that died with the node is gone until the next full cycle
  // re-runs the distributor; stop counting it against the surviving nodes'
  // free CPU. (tx_node_loads_ only tracks nodes, so zeroing offline entries
  // is enough — surviving instances keep their last-cycle loads.)
  for (std::size_t n = 0; n < tx_node_loads_.size(); ++n) {
    if (!cluster_->node_online(static_cast<NodeId>(n))) {
      tx_node_loads_[n] = 0.0;
    }
  }

  std::vector<Megabytes> free_mem;
  std::vector<MHz> free_cpu;
  ComputeFreeResources(free_mem, free_cpu);

  // Restart each displaced instance on the surviving node with the most free
  // CPU that fits its memory and satisfies placement constraints, stopping at
  // the churn bound. Instances the oracle vetoes stay down until the next
  // periodic cycle retries.
  int budget = config_.repair_max_changes;
  for (const Displaced& d : displaced) {
    if (budget <= 0) break;
    ManagedTx& tx = tx_apps_[d.tx_index];
    const int cap = tx.app->spec().max_instances;
    if (cap > 0 && static_cast<int>(tx.instances.size()) >= cap) continue;
    const Megabytes mem = tx.app->spec().memory_per_instance;
    // Any online node with the memory and no instance of this app yet is
    // acceptable — even a CPU-saturated one, since the next cycle's
    // distributor rebalances load; prefer the node with the most
    // unallocated CPU so the instance is useful now.
    int best_node = -1;
    MHz best_cpu = -std::numeric_limits<MHz>::infinity();
    for (std::size_t n = 0; n < free_cpu.size(); ++n) {
      if (!cluster_->node_online(static_cast<NodeId>(n))) continue;
      if (free_mem[n] + kEpsilon < mem) continue;
      if (std::find(tx.instances.begin(), tx.instances.end(),
                    static_cast<NodeId>(n)) != tx.instances.end()) {
        continue;  // one instance per node (snapshot feasibility rule)
      }
      if (!config_.constraints.empty() &&
          !config_.constraints.AllowsNode(tx.app->id(),
                                          static_cast<NodeId>(n))) {
        continue;
      }
      if (free_cpu[n] > best_cpu) {
        best_cpu = free_cpu[n];
        best_node = static_cast<int>(n);
      }
    }
    if (best_node < 0) continue;
    if (OperationFails(PlacementChange::Kind::kStart, tx.app->id())) continue;
    tx.instances.push_back(best_node);
    free_mem[static_cast<std::size_t>(best_node)] -= mem;
    ++total_changes_;
    ++repair.tx_replaced;
    --budget;
  }

  // Refill whatever capacity the fault freed (and the budget still allows)
  // with queued work — including the jobs this fault just re-queued.
  repair.job_placements = QuickDispatch(sim, budget);
  repair.failed_operations = pending_failed_ops_ - failed_ops_before;

  MWP_LOG_DEBUG << "repair t=" << now << " requeued=" << repair.jobs_requeued
                << " tx=" << repair.tx_replaced << "/" << repair.tx_displaced
                << " jobs=" << repair.job_placements;
  repairs_.push_back(repair);
  ArmCompletionWatch(sim);
}

void ApcController::ArmCompletionWatch(Simulation& sim) {
  sim.Cancel(completion_watch_);
  completion_watch_ = EventHandle();
  Seconds earliest = kTimeForever;
  for (Job* job : queue_->Placed()) {
    if (job->allocated_speed() <= 0.0) continue;
    const Seconds exec_start = std::max(sim.now(), job->overhead_until());
    const Seconds t =
        exec_start + job->profile().RemainingTimeAtSpeed(job->work_done(),
                                                         job->allocated_speed());
    earliest = std::min(earliest, t);
  }
  if (earliest == kTimeForever) return;
  completion_watch_ =
      sim.ScheduleAt(std::max(earliest, sim.now()), [this](Simulation& s) {
        QuickDispatch(s);   // advances jobs, then refills freed capacity
        ArmCompletionWatch(s);
      });
}

}  // namespace mwp
