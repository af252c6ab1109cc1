#include "core/snapshot.h"

#include <algorithm>

#include "common/check.h"

namespace mwp {

PlacementSnapshot::PlacementSnapshot(const ClusterSpec* cluster, Seconds now,
                                     Seconds control_cycle,
                                     std::vector<JobView> jobs,
                                     std::vector<TxView> tx_apps)
    : cluster_(cluster),
      now_(now),
      control_cycle_(control_cycle),
      jobs_(std::move(jobs)),
      tx_apps_(std::move(tx_apps)),
      current_(num_entities(), cluster->num_nodes()) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(control_cycle_ > 0.0);
  for (int j = 0; j < num_jobs(); ++j) {
    const JobView& view = jobs_[static_cast<std::size_t>(j)];
    MWP_CHECK(view.profile != nullptr);
    if (view.placed()) {
      MWP_CHECK(view.current_node != kInvalidNode);
      current_.at(EntityOfJob(j), view.current_node) = 1;
    }
  }
  for (int w = 0; w < num_tx(); ++w) {
    for (NodeId n : tx_apps_[static_cast<std::size_t>(w)].current_nodes) {
      current_.at(EntityOfTx(w), n) += 1;
    }
  }
  entity_memory_.reserve(static_cast<std::size_t>(num_entities()));
  for (const JobView& v : jobs_) entity_memory_.push_back(v.memory);
  for (const TxView& t : tx_apps_) entity_memory_.push_back(t.memory);
  node_online_.reserve(static_cast<std::size_t>(num_nodes()));
  node_available_cpu_.reserve(static_cast<std::size_t>(num_nodes()));
  node_available_memory_.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    node_online_.push_back(cluster_->node_online(n));
    node_available_cpu_.push_back(cluster_->available_cpu(n));
    node_available_memory_.push_back(cluster_->available_memory(n));
  }
}

int PlacementSnapshot::NumOnlineNodes() const {
  int count = 0;
  for (bool online : node_online_) {
    if (online) ++count;
  }
  return count;
}

PlacementSnapshot PlacementSnapshot::Capture(
    const ClusterSpec& cluster, Seconds now, Seconds control_cycle,
    JobQueue& queue, const VmCostModel& costs,
    const std::vector<TxInput>& tx_apps) {
  std::vector<JobView> jobs;
  for (Job* job : queue.Incomplete()) {
    JobView v;
    v.id = job->id();
    v.profile = &job->profile();
    v.goal = job->goal();
    v.work_done = job->work_done();
    v.status = job->status();
    v.current_node = job->node();
    v.overhead_until = job->overhead_until();
    v.memory = job->profile().max_memory();
    const int stage = job->current_stage();
    const JobStage& s = job->profile().stage(
        std::min(stage, job->profile().num_stages() - 1));
    v.max_speed = s.max_speed;
    v.min_speed = s.min_speed;
    switch (job->status()) {
      case JobStatus::kNotStarted:
        v.place_overhead = costs.BootCost();
        break;
      case JobStatus::kSuspended:
        v.place_overhead = costs.ResumeCost(v.memory);
        break;
      default:
        v.place_overhead = 0.0;
        break;
    }
    v.migrate_overhead = costs.MigrateCost(v.memory);
    jobs.push_back(v);
  }
  std::vector<TxView> txs;
  for (const TxInput& input : tx_apps) {
    MWP_CHECK(input.app != nullptr);
    TxView t;
    t.id = input.app->id();
    t.app = input.app;
    t.arrival_rate = input.arrival_rate;
    t.memory = input.app->spec().memory_per_instance;
    t.max_instances = input.app->spec().max_instances;
    t.current_nodes = input.current_nodes;
    txs.push_back(t);
  }
  return PlacementSnapshot(&cluster, now, control_cycle, std::move(jobs),
                           std::move(txs));
}

void PlacementSnapshot::OverrideNodeAvailability(std::vector<bool> online,
                                                 std::vector<MHz> cpu,
                                                 std::vector<Megabytes> memory) {
  const auto n = static_cast<std::size_t>(num_nodes());
  MWP_CHECK(online.size() == n && cpu.size() == n && memory.size() == n);
  node_online_ = std::move(online);
  node_available_cpu_ = std::move(cpu);
  node_available_memory_ = std::move(memory);
}

void PlacementSnapshot::set_fairness_credits(std::vector<double> credits) {
  MWP_CHECK_MSG(
      credits.empty() ||
          credits.size() == static_cast<std::size_t>(num_entities()),
      "fairness credit vector must be empty or one entry per entity");
  fairness_credits_ = std::move(credits);
}

int PlacementSnapshot::JobOfEntity(int entity) const {
  MWP_CHECK(IsJobEntity(entity));
  return entity;
}

int PlacementSnapshot::TxOfEntity(int entity) const {
  MWP_CHECK(!IsJobEntity(entity) && entity < num_entities());
  return entity - num_jobs();
}

Megabytes PlacementSnapshot::EntityMemory(int entity) const {
  return entity_memory_.at(static_cast<std::size_t>(entity));
}

Megabytes PlacementSnapshot::FreeMemory(const SparsePlacement& p,
                                        int node) const {
  MWP_CHECK(node >= 0 && node < num_nodes() && p.num_nodes() == num_nodes());
  Megabytes used = 0.0;
  for (const SparsePlacement::Cell& c : p.Residents(node)) {
    used += c.count * entity_memory_[static_cast<std::size_t>(c.index)];
  }
  return node_available_memory_[static_cast<std::size_t>(node)] - used;
}

void PlacementSnapshot::set_constraints(PlacementConstraints constraints) {
  constraints_ = std::move(constraints);
  separated_entities_.clear();
  for (const auto& [a, b] : constraints_.separations()) {
    // The last entity carrying each id, as a scan in entity order finds.
    int ea = -1, eb = -1;
    for (int e = 0; e < num_entities(); ++e) {
      if (EntityAppId(e) == a) ea = e;
      if (EntityAppId(e) == b) eb = e;
    }
    if (ea < 0 || eb < 0) continue;  // one side not in this snapshot
    separated_entities_.emplace_back(ea, eb);
  }
}

Seconds JobExecStart(const PlacementSnapshot& snap, const JobView& jv,
                     NodeId target_node) {
  const Seconds ref = std::max(snap.now(), jv.overhead_until);
  if (!jv.placed()) return snap.now() + jv.place_overhead;
  if (jv.current_node != target_node) return ref + jv.migrate_overhead;
  return ref;
}

AppId PlacementSnapshot::EntityAppId(int entity) const {
  if (IsJobEntity(entity)) return job(JobOfEntity(entity)).id;
  return tx(TxOfEntity(entity)).id;
}

bool PlacementSnapshot::IsFeasible(const PlacementMatrix& p) const {
  MWP_CHECK(p.num_apps() == num_entities());
  MWP_CHECK(p.num_nodes() == num_nodes());
  return IsFeasible(SparsePlacement(p));
}

bool PlacementSnapshot::IsFeasible(const SparsePlacement& p) const {
  MWP_CHECK(p.num_entities() == num_entities());
  MWP_CHECK(p.num_nodes() == num_nodes());
  for (int n = 0; n < num_nodes(); ++n) {
    if (!NodeFeasible(p, n)) return false;
  }
  return true;
}

bool PlacementSnapshot::NodesFeasible(const SparsePlacement& p,
                                      std::span<const int> nodes) const {
  MWP_CHECK(p.num_entities() == num_entities());
  MWP_CHECK(p.num_nodes() == num_nodes());
  for (const int n : nodes) {
    MWP_CHECK(n >= 0 && n < num_nodes());
    if (!NodeFeasible(p, n)) return false;
  }
  return true;
}

bool PlacementSnapshot::NodeFeasible(const SparsePlacement& p,
                                     int node) const {
  const auto n = static_cast<std::size_t>(node);
  // Memory use adds the residents in ascending entity order, exactly as
  // FreeMemory sums it, so the capacity test sees the same doubles.
  Megabytes used = 0.0;
  for (const SparsePlacement::Cell& c : p.Residents(node)) {
    const int e = c.index;
    // Nothing may be placed on a crashed node.
    if (c.count > 0 && !node_online_[n]) return false;
    const int instances = p.InstanceCount(e);
    if (IsJobEntity(e)) {
      if (instances > 1) return false;
    } else {
      if (c.count > 1) return false;  // at most one tx instance per node
      const int cap = tx(TxOfEntity(e)).max_instances;
      if (cap > 0 && instances > cap) return false;
    }
    used += c.count * entity_memory_[static_cast<std::size_t>(e)];
  }
  if (node_online_[n] && node_available_memory_[n] - used < -kEpsilon) {
    return false;
  }
  if (!constraints_.empty()) {
    for (const SparsePlacement::Cell& c : p.Residents(node)) {
      if (c.count > 0 && !constraints_.AllowsNode(EntityAppId(c.index), node)) {
        return false;
      }
    }
    for (const auto& [ea, eb] : separated_entities_) {
      if (p.Count(ea, node) > 0 && p.Count(eb, node) > 0) return false;
    }
  }
  return true;
}

}  // namespace mwp
