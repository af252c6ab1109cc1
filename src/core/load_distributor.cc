#include "core/load_distributor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/job_rpf.h"
#include "web/queuing_model.h"

namespace mwp {
namespace {

/// Current-stage max speed of a job view.
MHz StageMaxSpeed(const JobView& jv) {
  const int stage = std::min(jv.profile->StageAt(jv.work_done),
                             jv.profile->num_stages() - 1);
  return jv.profile->stage(stage).max_speed;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Source of distributor ids; 0 is never issued (it marks a fresh scratch).
std::atomic<std::uint64_t> next_distributor_id{1};

/// A memo table clears itself past this many stored words (8 MiB), far
/// above one cycle's distinct networks and splits.
constexpr std::size_t kMemoMaxWords = std::size_t{1} << 20;

}  // namespace

std::uint64_t DistributorScratch::Memo::Hash(
    std::span<const std::uint64_t> key) {
  // Splitmix64 finalizer over each word, chained.
  std::uint64_t h = key.size();
  for (const std::uint64_t w : key) {
    h ^= w + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

int DistributorScratch::Memo::Find(std::span<const std::uint64_t> key,
                                   std::uint64_t hash) const {
  const auto it = newest_.find(hash);
  if (it == newest_.end()) return -1;
  for (int i = it->second; i >= 0;
       i = entries_[static_cast<std::size_t>(i)].older) {
    const Entry& e = entries_[static_cast<std::size_t>(i)];
    if (std::equal(key.begin(), key.end(), keys_.begin() + e.key_begin,
                   keys_.begin() + e.key_begin + e.key_size)) {
      return i;
    }
  }
  return -1;
}

int DistributorScratch::Memo::Insert(std::span<const std::uint64_t> key,
                                     std::uint64_t hash,
                                     std::span<const double> values) {
  if (keys_.size() + values_.size() > kMemoMaxWords) Clear();
  const int index = static_cast<int>(entries_.size());
  auto [it, inserted] = newest_.try_emplace(hash, index);
  entries_.push_back(Entry{keys_.size(), key.size(), values_.size(),
                           values.size(), inserted ? -1 : it->second});
  it->second = index;
  keys_.insert(keys_.end(), key.begin(), key.end());
  values_.insert(values_.end(), values.begin(), values.end());
  return index;
}

std::span<const double> DistributorScratch::Memo::values(int entry) const {
  const Entry& e = entries_[static_cast<std::size_t>(entry)];
  return std::span<const double>(values_).subspan(e.value_begin, e.value_size);
}

void DistributorScratch::Memo::Clear() {
  newest_.clear();
  entries_.clear();
  keys_.clear();
  values_.clear();
}

struct LoadDistributor::FillEntity {
  using Kind = DistributorScratch::FillKind;

  Kind kind = Kind::kJob;
  /// Snapshot entity index for kJob/kTx; -1 for the batch aggregate.
  int entity = -1;
  std::unique_ptr<Rpf> rpf;  // null for trivially satisfied entities
  /// Instance nodes and their edge caps, views into the scratch topology.
  std::span<const int> nodes;
  std::span<const MHz> edge_caps;
  MHz min_alloc = 0.0;
  bool active = false;
  MHz fixed_demand = 0.0;
  Utility fixed_utility = kUtilityFloor;
  /// rpf->max_utility(), computed once per build (the RPFs are
  /// deterministic, so this is the exact value every call would return).
  Utility max_u = kUtilityFloor;
  /// Demand curve memo (level bits → allocation); wired only for the batch
  /// aggregate, whose curve is placement-independent.
  std::unordered_map<std::uint64_t, MHz>* demand_memo = nullptr;

  /// Demand at a common level, clamped at the entity's own maximum.
  MHz DemandAt(Utility level) const {
    MWP_DCHECK(rpf != nullptr);
    const Utility target = std::min(level, max_u);
    if (demand_memo != nullptr) {
      const std::uint64_t key = Bits(target);
      auto it = demand_memo->find(key);
      if (it != demand_memo->end()) return it->second;
      const MHz alloc = rpf->AllocationFor(target);
      demand_memo->emplace(key, alloc);
      return alloc;
    }
    return rpf->AllocationFor(target);
  }
};

LoadDistributor::LoadDistributor(const PlacementSnapshot* snapshot)
    : LoadDistributor(snapshot, Options{}) {}

LoadDistributor::LoadDistributor(const PlacementSnapshot* snapshot,
                                 Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      id_(next_distributor_id.fetch_add(1, std::memory_order_relaxed)) {
  MWP_CHECK(snapshot_ != nullptr);
  stage_max_.reserve(static_cast<std::size_t>(snapshot_->num_jobs()));
  for (const JobView& jv : snapshot_->jobs()) {
    stage_max_.push_back(StageMaxSpeed(jv));
  }
  if (options_.batch_aggregate && snapshot_->num_jobs() > 0) {
    // The aggregate demand curve over every incomplete job, evaluated at the
    // snapshot instant. Start delays reflect the jobs' *current* status; the
    // small per-candidate differences (boot vs resume latency) are scored by
    // the evaluator's look-ahead, not here.
    std::vector<HypotheticalJobState> states;
    states.reserve(static_cast<std::size_t>(snapshot_->num_jobs()));
    for (const JobView& jv : snapshot_->jobs()) {
      HypotheticalJobState s;
      s.profile = jv.profile;
      s.goal = jv.goal;
      s.work_done = jv.work_done;
      s.start_delay = jv.placed()
                          ? std::max(0.0, jv.overhead_until - snapshot_->now())
                          : jv.place_overhead;
      states.push_back(s);
    }
    hypothetical_ =
        std::make_unique<HypotheticalRpf>(std::move(states), snapshot_->now());
  }
}

void LoadDistributor::ReadTopology(const SparsePlacement& p,
                                   DistributorScratch& scratch) const {
  using Kind = DistributorScratch::FillKind;
  const PlacementSnapshot& snap = *snapshot_;
  const int num_nodes = snap.num_nodes();
  scratch.fills.clear();
  scratch.edge_node.clear();
  scratch.edge_cap.clear();
  auto add_fill = [&](Kind kind, int entity, bool active) {
    scratch.fills.push_back(DistributorScratch::Fill{
        kind, entity, active, static_cast<int>(scratch.edge_node.size()), 0});
  };
  auto add_edge = [&](int node, MHz cap) {
    scratch.edge_node.push_back(node);
    scratch.edge_cap.push_back(cap);
    ++scratch.fills.back().num_edges;
  };

  if (options_.batch_aggregate) {
    // One entity for the whole batch workload, routed through the placed
    // job instances. Per-node caps accumulate jobs in index order (the
    // addition order determines the exact double). The hosting node of
    // each job is recorded on the way for the final decomposition.
    std::vector<MHz>& node_cap = scratch.node_cap;
    node_cap.assign(static_cast<std::size_t>(num_nodes), 0.0);
    scratch.job_node.assign(static_cast<std::size_t>(snap.num_jobs()), -1);
    for (int j = 0; j < snap.num_jobs(); ++j) {
      for (const SparsePlacement::Cell& c : p.NodesOf(snap.EntityOfJob(j))) {
        if (c.count <= 0) continue;
        node_cap[static_cast<std::size_t>(c.index)] +=
            stage_max_[static_cast<std::size_t>(j)];
        scratch.job_node[static_cast<std::size_t>(j)] = c.index;
      }
    }
    for (int n = 0; n < num_nodes; ++n) {
      if (node_cap[static_cast<std::size_t>(n)] <= 0.0) continue;
      if (scratch.fills.empty()) add_fill(Kind::kBatch, -1, true);
      add_edge(n, node_cap[static_cast<std::size_t>(n)]);
    }
  } else {
    for (int j = 0; j < snap.num_jobs(); ++j) {
      const int entity = snap.EntityOfJob(j);
      const int node = p.FirstNode(entity);
      if (node == kInvalidNode) continue;
      MWP_DCHECK_MSG(p.InstanceCount(entity) == 1,
                     "a job has a single instance");
      add_fill(Kind::kJob, entity, true);
      add_edge(node, stage_max_[static_cast<std::size_t>(j)]);
    }
  }

  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    if (p.InstanceCount(entity) == 0) continue;
    // An app without load is inactive: satisfied with zero CPU.
    add_fill(Kind::kTx, entity, snap.tx(w).arrival_rate > 1e-12);
    for (const SparsePlacement::Cell& c : p.NodesOf(entity)) {
      // A transactional instance may use its node's whole available CPU
      // (zero on a node captured offline, scaled when degraded).
      if (c.count > 0) add_edge(c.index, snap.NodeAvailableCpu(c.index));
    }
  }

  // The key: everything the water-fill reads that varies by candidate. An
  // entity's RPF is fixed by its kind and snapshot index (and, for a job,
  // by its node); node capacities are fixed by the snapshot. Per entity:
  // kind | active << 8 | index << 32, the fixed demand it starts from
  // (always zero), the edge count, then (node, cap bits) per edge.
  std::vector<std::uint64_t>& key = scratch.fill_key;
  key.clear();
  for (const DistributorScratch::Fill& f : scratch.fills) {
    const auto index = static_cast<std::uint32_t>(f.entity);
    key.push_back(static_cast<std::uint64_t>(f.kind) |
                  (f.active ? std::uint64_t{1} << 8 : 0) |
                  (static_cast<std::uint64_t>(index) << 32));
    key.push_back(Bits(0.0));
    key.push_back(static_cast<std::uint64_t>(f.num_edges));
    for (int k = f.first_edge; k < f.first_edge + f.num_edges; ++k) {
      const auto edge = static_cast<std::size_t>(k);
      key.push_back(static_cast<std::uint64_t>(scratch.edge_node[edge]));
      key.push_back(Bits(scratch.edge_cap[edge]));
    }
  }
}

std::vector<LoadDistributor::FillEntity> LoadDistributor::BuildEntities(
    DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  std::vector<FillEntity> entities;
  entities.reserve(scratch.fills.size());
  for (const DistributorScratch::Fill& f : scratch.fills) {
    FillEntity e;
    e.kind = f.kind;
    e.entity = f.entity;
    e.nodes = std::span<const int>(scratch.edge_node)
                  .subspan(static_cast<std::size_t>(f.first_edge),
                           static_cast<std::size_t>(f.num_edges));
    e.edge_caps = std::span<const MHz>(scratch.edge_cap)
                      .subspan(static_cast<std::size_t>(f.first_edge),
                               static_cast<std::size_t>(f.num_edges));
    e.active = f.active;
    switch (f.kind) {
      case FillEntity::Kind::kBatch:
        MWP_DCHECK(hypothetical_ != nullptr);
        e.rpf = std::make_unique<BatchAggregateRpf>(hypothetical_.get());
        e.demand_memo = &scratch.batch_demand_memo;
        break;
      case FillEntity::Kind::kJob: {
        const JobView& jv = snap.job(snap.JobOfEntity(f.entity));
        e.min_alloc = jv.min_speed;
        e.rpf = std::make_unique<JobCompletionRpf>(
            jv.profile, jv.goal, jv.work_done,
            JobExecStart(snap, jv, e.nodes.front()));
        break;
      }
      case FillEntity::Kind::kTx:
        if (f.active) {
          const TxView& tv = snap.tx(snap.TxOfEntity(f.entity));
          e.rpf =
              std::make_unique<QueuingModel>(tv.app->ModelAt(tv.arrival_rate));
        } else {
          e.fixed_utility = 1.0;  // no load: satisfied with zero CPU
        }
        break;
    }
    if (e.rpf != nullptr) e.max_u = e.rpf->max_utility();
    entities.push_back(std::move(e));
  }
  return entities;
}

void LoadDistributor::PrepareFlowNetwork(
    const std::vector<FillEntity>& entities, DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  const int num_nodes = snap.num_nodes();
  const int e_count = static_cast<int>(entities.size());
  const int sink = 1 + e_count + num_nodes;

  FeasibilityFlow& flow = scratch.flow;
  flow.Reset(sink + 1, /*source=*/0, sink);
  for (int i = 0; i < e_count; ++i) flow.AddDemandEdge(1 + i);
  scratch.num_fill_entities = e_count;
  scratch.entity_edges.resize(static_cast<std::size_t>(e_count));
  for (int i = 0; i < e_count; ++i) {
    const FillEntity& e = entities[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < e.nodes.size(); ++k) {
      const int edge =
          flow.AddEdge(1 + i, 1 + e_count + e.nodes[k], e.edge_caps[k]);
      if (k == 0) scratch.entity_edges[static_cast<std::size_t>(i)] = edge;
    }
  }
  for (int n = 0; n < num_nodes; ++n) {
    flow.AddEdge(1 + e_count + n, sink, snap.NodeAvailableCpu(n));
  }
  flow.Finalize();
}

bool LoadDistributor::ProbeDemands(const std::vector<MHz>& demands,
                                   DistributorScratch& scratch,
                                   bool commit) const {
  MWP_DCHECK(scratch.num_fill_entities == static_cast<int>(demands.size()));
  ++scratch.stats_.flow_probes;
  MHz demand_total = 0.0;
  for (const MHz d : demands) demand_total += d;
  if (demand_total <= 0.0) return true;
  return scratch.flow.Feasible(demands, commit);
}

bool LoadDistributor::RouteDemands(const std::vector<MHz>& demands,
                                   DistributorScratch& scratch) const {
  MWP_DCHECK(scratch.num_fill_entities == static_cast<int>(demands.size()));
  ++scratch.stats_.flow_probes;

  MHz demand_total = 0.0;
  for (const MHz d : demands) demand_total += d;
  std::vector<MHz>& routing = scratch.routing;
  routing.assign(scratch.edge_node.size(), 0.0);
  if (demand_total <= 0.0) return true;

  // A cold solve: the routing feeds the decisions, and a max-flow with
  // several entities is not unique, so it must not depend on which probes
  // ran before. Flows are extracted before the verdict so an infeasible call
  // still reports its max-flow attempt — the water-fill's best-effort
  // fallback grants entities exactly these shares.
  FeasibilityFlow& flow = scratch.flow;
  const double shortfall = flow.SolveCold(demands);
  for (std::size_t i = 0; i < scratch.fills.size(); ++i) {
    const DistributorScratch::Fill& f = scratch.fills[i];
    const int first_edge = scratch.entity_edges[i];
    for (int k = 0; k < f.num_edges; ++k) {
      const double flow_k = flow.EdgeFlow(first_edge + k);
      if (flow_k > kFlowEps) {
        routing[static_cast<std::size_t>(f.first_edge + k)] = flow_k;
      }
    }
  }
  return shortfall <= kFeasibilityTol;
}

void LoadDistributor::DecomposeNodeShare(std::span<const int> local_jobs,
                                         int node, MHz share,
                                         std::vector<double>& out) const {
  const PlacementSnapshot& snap = *snapshot_;
  out.clear();
  struct LocalJob {
    MHz cap;
    MHz min_alloc;
    JobCompletionRpf rpf;
    Utility max_u;
    /// min(cap, AllocationFor(max_u)) — the value demand_at takes for any
    /// level at or above the job's max achievable utility (the common case
    /// during the upper bisection probes).
    MHz demand_at_max;
  };
  std::vector<LocalJob> local;
  local.reserve(local_jobs.size());
  for (int j : local_jobs) {
    const JobView& jv = snap.job(j);
    JobCompletionRpf rpf(jv.profile, jv.goal, jv.work_done,
                         JobExecStart(snap, jv, node));
    const Utility max_u = rpf.max_utility();
    const MHz cap = stage_max_[static_cast<std::size_t>(j)];
    const MHz at_max = std::min(cap, rpf.AllocationFor(max_u));
    local.push_back(LocalJob{cap, jv.min_speed, rpf, max_u, at_max});
  }
  if (local.empty()) return;

  // Equalize the local jobs' completion RPFs within the share: bisection on
  // a common level with per-job clamping at their caps / max utilities.
  auto demand_at = [&](const LocalJob& j, Utility level) {
    if (level >= j.max_u) return j.demand_at_max;
    return std::min(j.cap, j.rpf.AllocationFor(level));
  };
  auto total_at = [&](Utility level) {
    MHz total = 0.0;
    for (const LocalJob& j : local) total += demand_at(j, level);
    return total;
  };

  Utility hi = kUtilityFloor;
  for (const LocalJob& j : local) hi = std::max(hi, j.max_u);
  Utility level = hi;
  if (total_at(hi) > share + 1e-9) {
    Utility lo = kUtilityFloor;
    for (int iter = 0; iter < kBisectionIters; ++iter) {
      const Utility mid = 0.5 * (lo + hi);
      if (total_at(mid) <= share) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    level = lo;
  }

  // Grant the level demands, then pour any remainder into jobs below cap
  // (they are past their max achievable utility; extra speed still helps
  // them finish sooner but cannot raise the level further).
  std::vector<MHz> grant(local.size());
  MHz used = 0.0;
  for (std::size_t k = 0; k < local.size(); ++k) {
    grant[k] = demand_at(local[k], level);
    used += grant[k];
  }
  if (used > share + 1e-9) {
    // The bisection bottomed out: even the floor demands exceed the share
    // (the fill routed less to this node than its jobs need at the floor).
    // Scale them down so the node is not granted more CPU than it has.
    const double scale = share / used;
    for (MHz& g : grant) g *= scale;
    used = share;
  }
  MHz leftover = std::max(0.0, share - used);
  for (std::size_t k = 0; k < local.size() && leftover > 1e-9; ++k) {
    const MHz room = local[k].cap - grant[k];
    const MHz add = std::min(room, leftover);
    grant[k] += add;
    leftover -= add;
  }

  for (std::size_t k = 0; k < local.size(); ++k) {
    // A job below its stage minimum speed must pause instead (§4.1).
    if (grant[k] > 0.0 && grant[k] + 1e-9 < local[k].min_alloc) grant[k] = 0.0;
    out.push_back(grant[k]);
    out.push_back(local[k].rpf.UtilityAt(grant[k]));
  }
}

void LoadDistributor::AssignNodeShare(std::span<const int> local_jobs,
                                      int node, MHz share,
                                      DistributorScratch& scratch,
                                      DistributionResult& result) const {
  std::vector<std::uint64_t>& key = scratch.split_key;
  key.assign({static_cast<std::uint64_t>(node), Bits(share)});
  for (const int j : local_jobs) key.push_back(static_cast<std::uint64_t>(j));
  const std::uint64_t hash = DistributorScratch::Memo::Hash(key);
  int entry = scratch.split_memo.Find(key, hash);
  if (entry >= 0) {
    ++scratch.stats_.split_memo_hits;
  } else {
    DecomposeNodeShare(local_jobs, node, share, scratch.memo_values);
    entry = scratch.split_memo.Insert(key, hash, scratch.memo_values);
  }
  const std::span<const double> split = scratch.split_memo.values(entry);
  for (std::size_t k = 0; k < local_jobs.size(); ++k) {
    const int entity = snapshot_->EntityOfJob(local_jobs[k]);
    // A job's only instance is its first load entry.
    result.loads[static_cast<std::size_t>(
                     scratch.load_begin[static_cast<std::size_t>(entity)])]
        .load = split[2 * k];
    result.totals[static_cast<std::size_t>(entity)] = split[2 * k];
    result.utilities[static_cast<std::size_t>(entity)] = split[2 * k + 1];
  }
}

int LoadDistributor::SolveFill(DistributorScratch& scratch,
                               std::uint64_t hash) const {
  std::vector<FillEntity> entities = BuildEntities(scratch);
  PrepareFlowNetwork(entities, scratch);

  std::vector<MHz>& demands = scratch.demands;
  demands.assign(entities.size(), 0.0);
  auto refresh_demands = [&](Utility level) {
    for (std::size_t i = 0; i < entities.size(); ++i) {
      demands[i] =
          entities[i].active ? entities[i].DemandAt(level) : entities[i].fixed_demand;
    }
  };
  // Level probes commit their flow when feasible, so the next, higher level
  // starts warm from it.
  auto feasible = [&](Utility level) {
    refresh_demands(level);
    return ProbeDemands(demands, scratch, /*commit=*/true);
  };

  int active_count = 0;
  for (const FillEntity& e : entities) {
    if (e.active) ++active_count;
  }

  // Every round fixes at least one entity, so the round bound never binds.
  const int max_rounds = active_count + 2;
  for (int round = 0; active_count > 0 && round < max_rounds; ++round) {
    Utility hi = kUtilityFloor;
    for (const FillEntity& e : entities) {
      if (e.active) hi = std::max(hi, e.max_u);
    }

    if (!feasible(kUtilityFloor)) {
      // Even the floor demands do not fit (possible only when entities were
      // probe-fixed above the floor earlier, or demands at the floor exceed
      // routable capacity): grant each remaining entity its max-flow share
      // of the floor demands.
      refresh_demands(kUtilityFloor);
      RouteDemands(demands, scratch);  // best-effort
      for (std::size_t i = 0; i < entities.size(); ++i) {
        FillEntity& e = entities[i];
        if (!e.active) continue;
        const DistributorScratch::Fill& f = scratch.fills[i];
        MHz granted = 0.0;
        for (int k = f.first_edge; k < f.first_edge + f.num_edges; ++k) {
          granted += scratch.routing[static_cast<std::size_t>(k)];
        }
        e.fixed_demand = granted;
        e.fixed_utility = e.rpf->UtilityAt(granted);
        e.active = false;
      }
      active_count = 0;
      break;
    }

    if (feasible(hi)) {
      for (FillEntity& e : entities) {
        if (!e.active) continue;
        e.fixed_demand = e.DemandAt(e.max_u);
        e.fixed_utility = e.max_u;
        e.active = false;
        --active_count;
      }
      continue;
    }

    Utility lo = kUtilityFloor;
    for (int iter = 0; iter < kBisectionIters; ++iter) {
      const Utility mid = 0.5 * (lo + hi);
      if (feasible(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const Utility level = lo;

    // Fix saturated and bottlenecked entities at the level. Both are
    // granted the demand verified feasible at `level` — never more, or the
    // remaining rounds would build on an unroutable base.
    int fixed_this_round = 0;
    refresh_demands(level);
    for (FillEntity& e : entities) {
      if (!e.active) continue;
      if (level >= e.max_u - kLevelTolerance) {
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
        ++fixed_this_round;
      }
    }
    for (std::size_t i = 0; i < entities.size(); ++i) {
      FillEntity& e = entities[i];
      if (!e.active) continue;
      const MHz saved = demands[i];
      demands[i] = e.DemandAt(level + kProbeDelta);
      // Not committed: every δ-probe starts from the level's flow.
      const bool can_rise = ProbeDemands(demands, scratch, /*commit=*/false);
      demands[i] = saved;
      if (!can_rise) {
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
        ++fixed_this_round;
      }
    }
    if (fixed_this_round == 0) {
      // Numerical stalemate: freeze everyone at the level found.
      for (FillEntity& e : entities) {
        if (!e.active) continue;
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
      }
    }
  }

  MWP_DCHECK(active_count == 0);

  // Final routing with the fixed demands (always the last verified set).
  for (std::size_t i = 0; i < entities.size(); ++i) {
    demands[i] = entities[i].fixed_demand;
  }
  const bool routed = RouteDemands(demands, scratch);
  MWP_CHECK_MSG(routed, "final fixed demands must be routable");

  // The memo entry: per entity the demand and utility assembly grants, then
  // the routing.
  std::vector<double>& out = scratch.memo_values;
  out.clear();
  for (const FillEntity& e : entities) {
    MHz demand = e.fixed_demand;
    Utility utility = e.fixed_utility;
    if (e.kind == FillEntity::Kind::kJob) {
      // A job below its stage minimum speed must pause instead (§4.1).
      if (demand > 0.0 && demand + 1e-9 < e.min_alloc) demand = 0.0;
      if (e.rpf != nullptr) utility = e.rpf->UtilityAt(demand);
    }
    out.push_back(demand);
    out.push_back(utility);
  }
  out.insert(out.end(), scratch.routing.begin(), scratch.routing.end());
  return scratch.fill_memo.Insert(scratch.fill_key, hash, out);
}

MHz DistributionResult::LoadAt(int entity, int node) const {
  const auto it = std::lower_bound(
      loads.begin(), loads.end(), std::pair{entity, node},
      [](const InstanceLoad& l, const std::pair<int, int>& key) {
        return std::pair{l.entity, l.node} < key;
      });
  if (it == loads.end() || it->entity != entity || it->node != node) {
    return 0.0;
  }
  return it->load;
}

DistributionResult LoadDistributor::Distribute(const PlacementMatrix& p) const {
  return Distribute(p, scratch_);
}

DistributionResult LoadDistributor::Distribute(const PlacementMatrix& p,
                                               DistributorScratch& scratch) const {
  scratch.placement.Assign(p);
  MWP_CHECK_MSG(snapshot_->IsFeasible(scratch.placement),
                "Distribute requires a feasible placement");
  return DistributeFeasible(scratch.placement, scratch);
}

DistributionResult LoadDistributor::Distribute(
    const SparsePlacement& p, std::span<const int> changed_nodes,
    DistributorScratch& scratch) const {
  MWP_CHECK_MSG(snapshot_->NodesFeasible(p, changed_nodes),
                "Distribute requires a feasible placement");
  return DistributeFeasible(p, scratch);
}

DistributionResult LoadDistributor::DistributeFeasible(
    const SparsePlacement& p, DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  ++scratch.stats_.distribute_calls;
  if (scratch.owner != id_) {
    // Scratch last used with a different distributor: its memo tables do
    // not apply to this snapshot.
    scratch.owner = id_;
    scratch.batch_demand_memo.clear();
    scratch.fill_memo.Clear();
    scratch.split_memo.Clear();
  }
  ReadTopology(p, scratch);
  const std::uint64_t hash = DistributorScratch::Memo::Hash(scratch.fill_key);
  int entry = scratch.fill_memo.Find(scratch.fill_key, hash);
  if (entry >= 0) {
    ++scratch.stats_.fill_memo_hits;
  } else {
    entry = SolveFill(scratch, hash);
  }
  const std::span<const double> fill = scratch.fill_memo.values(entry);
  const std::size_t num_fills = scratch.fills.size();
  const std::span<const double> routing = fill.subspan(2 * num_fills);

  const auto num_entities = static_cast<std::size_t>(snap.num_entities());
  DistributionResult result;
  result.totals.assign(num_entities, 0.0);
  result.utilities.assign(num_entities, kUtilityFloor);
  result.placed.assign(num_entities, false);
  result.batch_level = std::numeric_limits<double>::quiet_NaN();

  // One zero load per placed cell, in (entity, node) order; the fill's
  // grants are written into them below.
  scratch.load_begin.resize(num_entities);
  result.loads.reserve(static_cast<std::size_t>(p.num_cells()));
  for (int e = 0; e < snap.num_entities(); ++e) {
    result.placed[static_cast<std::size_t>(e)] = p.InstanceCount(e) > 0;
    scratch.load_begin[static_cast<std::size_t>(e)] =
        static_cast<int>(result.loads.size());
    for (const SparsePlacement::Cell& c : p.NodesOf(e)) {
      if (c.count > 0) result.loads.push_back(InstanceLoad{e, c.index, 0.0});
    }
  }

  for (std::size_t i = 0; i < num_fills; ++i) {
    const DistributorScratch::Fill& f = scratch.fills[i];
    const MHz demand = fill[2 * i];
    const Utility utility = fill[2 * i + 1];
    const auto edges = static_cast<std::size_t>(f.first_edge);
    switch (f.kind) {
      case DistributorScratch::FillKind::kBatch: {
        result.batch_level = utility;
        // Group the placed jobs by hosting node (ascending job order, the
        // same order the per-node scan produced).
        std::vector<std::vector<int>>& groups = scratch.node_jobs;
        if (static_cast<int>(groups.size()) != snap.num_nodes()) {
          groups.resize(static_cast<std::size_t>(snap.num_nodes()));
        }
        for (std::vector<int>& g : groups) g.clear();
        for (int j = 0; j < snap.num_jobs(); ++j) {
          const int n = scratch.job_node[static_cast<std::size_t>(j)];
          if (n >= 0) groups[static_cast<std::size_t>(n)].push_back(j);
        }
        for (int k = 0; k < f.num_edges; ++k) {
          const std::size_t edge = edges + static_cast<std::size_t>(k);
          const MHz share = routing[edge];
          const int n = scratch.edge_node[edge];
          if (share > 0.0) {
            AssignNodeShare(groups[static_cast<std::size_t>(n)], n, share,
                            scratch, result);
          }
        }
        break;
      }
      case DistributorScratch::FillKind::kJob: {
        result.totals[static_cast<std::size_t>(f.entity)] = demand;
        result.utilities[static_cast<std::size_t>(f.entity)] = utility;
        if (demand > 0.0) {
          result.loads[static_cast<std::size_t>(
                           scratch.load_begin[static_cast<std::size_t>(
                               f.entity)])]
              .load = demand;
        }
        break;
      }
      case DistributorScratch::FillKind::kTx: {
        result.totals[static_cast<std::size_t>(f.entity)] = demand;
        result.utilities[static_cast<std::size_t>(f.entity)] = utility;
        // The app's edges are its placed cells in node order, as are its
        // load entries.
        const auto first_load = static_cast<std::size_t>(
            scratch.load_begin[static_cast<std::size_t>(f.entity)]);
        for (int k = 0; k < f.num_edges; ++k) {
          const std::size_t edge = edges + static_cast<std::size_t>(k);
          result.loads[first_load + static_cast<std::size_t>(k)].load =
              routing[edge];
        }
        break;
      }
    }
  }
  return result;
}

}  // namespace mwp
