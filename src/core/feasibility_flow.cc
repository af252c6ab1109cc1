#include "core/feasibility_flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace mwp {
namespace {

/// Rounding allowance of the guard band, in units of DBL_EPSILON times the
/// network's summed edge capacity. Near the knife edge every demand lies
/// within kFeasibilityTol of its routed flow, so no residual the verdict
/// depends on exceeds its edge's capacity, and each update of a residual
/// rounds it by at most half an ulp of that capacity. The allowance covers
/// 64 such roundings per edge, shared between the warm and the cold solve;
/// a warm probe adds a few augmentations to its base, and across Experiment
/// One's probes the warm and cold shortfalls agreed to the last bit.
constexpr double kGuardRoundingUlps = 64.0;

constexpr int kUnvisited = -1;
constexpr int kRoot = -2;

}  // namespace

void FeasibilityFlow::Reset(int vertices, int source, int sink) {
  MWP_CHECK(vertices >= 2 && source >= 0 && source < vertices && sink >= 0 &&
            sink < vertices && source != sink);
  vertices_ = vertices;
  source_ = source;
  sink_ = sink;
  edges_.clear();
  num_demand_edges_ = 0;
  has_committed_ = false;
}

void FeasibilityFlow::AddDemandEdge(int to) {
  MWP_CHECK_MSG(static_cast<int>(edges_.size()) == num_demand_edges_,
                "demand edges come before fixed edges");
  MWP_CHECK(to >= 0 && to < vertices_ && to != source_);
  edges_.push_back(Edge{source_, to, 0.0});
  ++num_demand_edges_;
}

int FeasibilityFlow::AddEdge(int from, int to, double cap) {
  MWP_CHECK(from >= 0 && from < vertices_ && to >= 0 && to < vertices_ &&
            from != to && cap >= 0.0);
  edges_.push_back(Edge{from, to, cap});
  return static_cast<int>(edges_.size()) - 1;
}

void FeasibilityFlow::Finalize() {
  const auto v_count = static_cast<std::size_t>(vertices_);
  const std::size_t arcs = 2 * edges_.size();

  // Each edge contributes a forward arc at its tail and a reverse arc at
  // its head; bucket them by tail, then sort each bucket by head.
  first_arc_.assign(v_count + 1, 0);
  for (const Edge& e : edges_) {
    ++first_arc_[static_cast<std::size_t>(e.from) + 1];
    ++first_arc_[static_cast<std::size_t>(e.to) + 1];
  }
  std::partial_sum(first_arc_.begin(), first_arc_.end(), first_arc_.begin());

  // (head, edge, is_reverse) per arc slot, then sorted within each tail.
  struct Slot {
    int head;
    int edge;
    bool reverse;
  };
  std::vector<Slot> slots(arcs);
  std::vector<int> next_slot(first_arc_.begin(), first_arc_.end() - 1);
  auto place = [&](int tail, const Slot& slot) {
    const int a = next_slot[static_cast<std::size_t>(tail)]++;
    slots[static_cast<std::size_t>(a)] = slot;
  };
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const Edge& e = edges_[k];
    place(e.from, Slot{e.to, static_cast<int>(k), false});
    place(e.to, Slot{e.from, static_cast<int>(k), true});
  }
  for (std::size_t v = 0; v < v_count; ++v) {
    const auto begin = slots.begin() + first_arc_[v];
    const auto end = slots.begin() + first_arc_[v + 1];
    std::sort(begin, end,
              [](const Slot& a, const Slot& b) { return a.head < b.head; });
    MWP_DCHECK_MSG(std::adjacent_find(begin, end,
                                      [](const Slot& a, const Slot& b) {
                                        return a.head == b.head;
                                      }) == end,
                   "one edge per vertex pair");
  }

  head_.resize(arcs);
  pair_.resize(arcs);
  cold_.assign(arcs, 0.0);
  edge_arc_.assign(edges_.size(), 0);
  std::vector<int> reverse_arc(edges_.size(), 0);
  for (std::size_t a = 0; a < arcs; ++a) {
    const Slot& s = slots[a];
    head_[a] = s.head;
    if (s.reverse) {
      reverse_arc[static_cast<std::size_t>(s.edge)] = static_cast<int>(a);
    } else {
      edge_arc_[static_cast<std::size_t>(s.edge)] = static_cast<int>(a);
      cold_[a] = edges_[static_cast<std::size_t>(s.edge)].cap;
    }
  }
  double capacity_sum = 0.0;  // fixed edges only; demands vary per solve
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const auto fwd = static_cast<std::size_t>(edge_arc_[k]);
    const auto rev = static_cast<std::size_t>(reverse_arc[k]);
    pair_[fwd] = static_cast<int>(rev);
    pair_[rev] = static_cast<int>(fwd);
    if (static_cast<int>(k) >= num_demand_edges_) capacity_sum += edges_[k].cap;
  }

  residual_.resize(arcs);
  committed_.resize(arcs);
  committed_demands_.resize(static_cast<std::size_t>(num_demand_edges_));
  has_committed_ = false;
  parent_arc_.resize(v_count);
  bfs_queue_.reserve(v_count);
  guard_band_ = static_cast<double>(edges_.size()) * kFlowEps +
                kGuardRoundingUlps * std::numeric_limits<double>::epsilon() *
                    capacity_sum;
}

bool FeasibilityFlow::Feasible(std::span<const double> demands, bool commit) {
  const bool warm = CanWarmStart(demands);
  double shortfall = warm ? SolveWarm(demands) : SolveCold(demands);
  if (warm && std::abs(shortfall - kFeasibilityTol) <= guard_band_) {
    ++cold_rechecks_;
    shortfall = SolveCold(demands);
  }
  const bool feasible = shortfall <= kFeasibilityTol;
  if (feasible && commit) {
    std::swap(residual_, committed_);
    std::copy(demands.begin(), demands.end(), committed_demands_.begin());
    has_committed_ = true;
  }
  return feasible;
}

double FeasibilityFlow::SolveCold(std::span<const double> demands) {
  MWP_DCHECK(static_cast<int>(demands.size()) == num_demand_edges_);
  std::copy(cold_.begin(), cold_.end(), residual_.begin());
  for (int i = 0; i < num_demand_edges_; ++i) {
    const auto k = static_cast<std::size_t>(i);
    edges_[k].cap = demands[k];
    residual_[static_cast<std::size_t>(edge_arc_[k])] = demands[k];
  }
  return Augment();
}

double FeasibilityFlow::SolveWarm(std::span<const double> demands) {
  MWP_DCHECK(CanWarmStart(demands));
  std::copy(committed_.begin(), committed_.end(), residual_.begin());
  for (int i = 0; i < num_demand_edges_; ++i) {
    const auto k = static_cast<std::size_t>(i);
    edges_[k].cap = demands[k];
    // The committed flow stays; only the extra demand is new residual.
    residual_[static_cast<std::size_t>(edge_arc_[k])] +=
        demands[k] - committed_demands_[k];
  }
  return Augment();
}

bool FeasibilityFlow::CanWarmStart(std::span<const double> demands) const {
  if (!has_committed_) return false;
  for (int i = 0; i < num_demand_edges_; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (demands[k] < committed_demands_[k]) return false;
  }
  return true;
}

double FeasibilityFlow::EdgeFlow(int edge) const {
  const auto k = static_cast<std::size_t>(edge);
  return edges_[k].cap - residual_[static_cast<std::size_t>(edge_arc_[k])];
}

double FeasibilityFlow::Augment() {
  const auto source = static_cast<std::size_t>(source_);
  const auto sink = static_cast<std::size_t>(sink_);
  for (;;) {
    std::fill(parent_arc_.begin(), parent_arc_.end(), kUnvisited);
    parent_arc_[source] = kRoot;
    bfs_queue_.clear();
    bfs_queue_.push_back(source_);
    for (std::size_t head = 0;
         head < bfs_queue_.size() && parent_arc_[sink] == kUnvisited; ++head) {
      const auto u = static_cast<std::size_t>(bfs_queue_[head]);
      for (int a = first_arc_[u]; a < first_arc_[u + 1]; ++a) {
        const auto v =
            static_cast<std::size_t>(head_[static_cast<std::size_t>(a)]);
        if (parent_arc_[v] == kUnvisited &&
            residual_[static_cast<std::size_t>(a)] > kFlowEps) {
          parent_arc_[v] = a;
          bfs_queue_.push_back(static_cast<int>(v));
        }
      }
    }
    if (parent_arc_[sink] == kUnvisited) break;
    ++augmentations_;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (std::size_t v = sink; v != source;) {
      const auto a = static_cast<std::size_t>(parent_arc_[v]);
      bottleneck = std::min(bottleneck, residual_[a]);
      v = static_cast<std::size_t>(head_[static_cast<std::size_t>(pair_[a])]);
    }
    for (std::size_t v = sink; v != source;) {
      const auto a = static_cast<std::size_t>(parent_arc_[v]);
      residual_[a] -= bottleneck;
      residual_[static_cast<std::size_t>(pair_[a])] += bottleneck;
      v = static_cast<std::size_t>(head_[static_cast<std::size_t>(pair_[a])]);
    }
  }

  // Feasibility = every source edge saturated, i.e. the summed source-edge
  // residuals stay within tolerance. Summing the residuals — not comparing
  // the pushed flow against the demand total — keeps the measurement at
  // each entity's own magnitude: the aggregate sums mix magnitudes (a
  // 1287 MHz total carries ~1e-12 of rounding noise), enough to flip a
  // knife-edge verdict between two water-filling rounds whose demand sets
  // differ only in already-satisfied entities. The distributor's final
  // fixed-demand routing relies on the verdict being monotone in the
  // demands, so it must not depend on the scale of the other entities.
  double shortfall = 0.0;
  for (int i = 0; i < num_demand_edges_; ++i) {
    shortfall += residual_[static_cast<std::size_t>(
        edge_arc_[static_cast<std::size_t>(i)])];
  }
  return shortfall;
}

}  // namespace mwp
