// Verdict equivalence of warm-started feasibility probes.
//
// FeasibilityFlow may start a probe from the committed flow of an earlier
// one, but its verdict must always equal a cold solve's: the load
// distributor's decisions hang on each verdict, and a flipped one moves a
// placement. These tests drive warm and cold solvers side by side over
// seeded random networks in the distributor's shape, through the probe
// sequence its water-fill issues, and pin the knife edge where a warm
// verdict without the guard band goes wrong.
#include "core/feasibility_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace mwp {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Source → fill entity → node → sink, as LoadDistributor builds it.
struct Network {
  struct Entity {
    std::vector<int> nodes;
    std::vector<double> caps;  // per nodes[k]
    double max_demand = 0.0;   // demand at level 1; 0 for a zero-rate app
    double exponent = 1.0;     // demand(level) = max_demand · level^exponent
  };
  std::vector<double> node_caps;
  std::vector<Entity> entities;  // [0] is the batch aggregate

  int num_entities() const { return static_cast<int>(entities.size()); }
  int num_nodes() const { return static_cast<int>(node_caps.size()); }
  int sink() const { return 1 + num_entities() + num_nodes(); }

  double DemandAt(int i, double level) const {
    const Entity& e = entities[static_cast<std::size_t>(i)];
    return e.max_demand * std::pow(level, e.exponent);
  }

  void Build(FeasibilityFlow& flow) const {
    const int e_count = num_entities();
    flow.Reset(sink() + 1, 0, sink());
    for (int i = 0; i < e_count; ++i) flow.AddDemandEdge(1 + i);
    for (int i = 0; i < e_count; ++i) {
      const Entity& e = entities[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < e.nodes.size(); ++k) {
        flow.AddEdge(1 + i, 1 + e_count + e.nodes[k], e.caps[k]);
      }
    }
    for (int n = 0; n < num_nodes(); ++n) {
      flow.AddEdge(1 + e_count + n, sink(),
                   node_caps[static_cast<std::size_t>(n)]);
    }
    flow.Finalize();
  }
};

/// A capacity drawn log-uniformly from 1e-3 to 1e6 MHz.
double Magnitude(Rng& rng) { return std::pow(10.0, rng.Uniform(-3.0, 6.0)); }

std::vector<int> NodeSubset(Rng& rng, int num_nodes) {
  std::vector<int> nodes;
  for (int n = 0; n < num_nodes; ++n) {
    if (rng.Uniform01() < 0.5) nodes.push_back(n);
  }
  if (nodes.empty()) {
    nodes.push_back(static_cast<int>(rng.UniformInt(0, num_nodes - 1)));
  }
  return nodes;
}

Network RandomNetwork(Rng& rng) {
  Network net;
  const int num_nodes = static_cast<int>(rng.UniformInt(1, 8));
  for (int n = 0; n < num_nodes; ++n) net.node_caps.push_back(Magnitude(rng));

  // The batch aggregate: per-node cap is the sum of one to three local
  // jobs' speed caps, and a deep queue asks for far more than fits.
  Network::Entity batch;
  batch.nodes = NodeSubset(rng, num_nodes);
  double reachable = 0.0;
  for (int n : batch.nodes) {
    double cap = 0.0;
    const int jobs = static_cast<int>(rng.UniformInt(1, 3));
    for (int j = 0; j < jobs; ++j) {
      cap += rng.Uniform01() < 0.5
                 ? net.node_caps[static_cast<std::size_t>(n)] *
                       rng.Uniform(0.1, 0.6)
                 : Magnitude(rng);
    }
    batch.caps.push_back(cap);
    reachable += cap;
    // A near-saturated node: its CPU within a few kFlowEps of the batch
    // instance cap, so residuals of the size the solver ignores appear.
    if (rng.Uniform01() < 0.3) {
      net.node_caps[static_cast<std::size_t>(n)] =
          std::max(0.0, cap + rng.Uniform(-3.0, 3.0) * kFlowEps);
    }
  }
  batch.max_demand = reachable * rng.Uniform(2.0, 20.0);
  batch.exponent = rng.Uniform(0.5, 3.0);
  net.entities.push_back(batch);

  // One to four transactional apps with multi-node instances; an instance
  // may use its node's whole CPU. Some apps see no load at all.
  const int tx_apps = static_cast<int>(rng.UniformInt(1, 4));
  for (int w = 0; w < tx_apps; ++w) {
    Network::Entity tx;
    tx.nodes = NodeSubset(rng, num_nodes);
    double cpu = 0.0;
    for (int n : tx.nodes) {
      tx.caps.push_back(net.node_caps[static_cast<std::size_t>(n)]);
      cpu += net.node_caps[static_cast<std::size_t>(n)];
    }
    if (rng.Uniform01() >= 0.25) {
      tx.max_demand = cpu * rng.Uniform(0.1, 1.2);
      tx.exponent = rng.Uniform(0.5, 3.0);
    }
    net.entities.push_back(tx);
  }
  return net;
}

/// Runs the water-fill's probe sequence on `net` — per round a floor probe,
/// a ceiling probe, a 48-step bisection and one raised-demand probe per
/// active entity — through a warm solver and a cold one, and checks every
/// probe.
class ProbeChecker {
 public:
  explicit ProbeChecker(const Network& net) : net_(net) {
    net_.Build(warm_);
    net_.Build(cold_);
  }

  void RunWaterFill() {
    const int e_count = net_.num_entities();
    std::vector<bool> active(static_cast<std::size_t>(e_count), false);
    std::vector<double> fixed(static_cast<std::size_t>(e_count), 0.0);
    int active_count = 0;
    for (int i = 0; i < e_count; ++i) {
      if (net_.entities[static_cast<std::size_t>(i)].max_demand > 0.0) {
        active[static_cast<std::size_t>(i)] = true;
        ++active_count;
      }
    }
    std::vector<double> demands(static_cast<std::size_t>(e_count), 0.0);
    auto at_level = [&](double level) {
      for (int i = 0; i < e_count; ++i) {
        const auto k = static_cast<std::size_t>(i);
        demands[k] = active[k] ? net_.DemandAt(i, level) : fixed[k];
      }
    };
    for (int round = 0; active_count > 0 && round < e_count + 2; ++round) {
      at_level(0.0);
      if (!Probe(demands, true)) break;
      at_level(1.0);
      if (Probe(demands, true)) break;
      double lo = 0.0;
      double hi = 1.0;
      for (int iter = 0; iter < 48; ++iter) {
        const double mid = 0.5 * (lo + hi);
        at_level(mid);
        if (Probe(demands, true)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      at_level(lo);
      int fixed_this_round = 0;
      for (int i = 0; i < e_count; ++i) {
        const auto k = static_cast<std::size_t>(i);
        if (!active[k]) continue;
        const double saved = demands[k];
        demands[k] = net_.DemandAt(i, lo + 1e-3);
        const bool can_rise = Probe(demands, false);
        demands[k] = saved;
        if (!can_rise) {
          fixed[k] = saved;
          active[k] = false;
          --active_count;
          ++fixed_this_round;
        }
      }
      if (fixed_this_round == 0) break;
    }
  }

  int warm_probes() const { return warm_probes_; }
  /// Warm verdicts that would differ from the cold one without the band.
  int unguarded_flips() const { return unguarded_flips_; }
  const FeasibilityFlow& warm() const { return warm_; }

 private:
  /// One probe: the guarded warm verdict must equal the cold verdict.
  bool Probe(const std::vector<double>& demands, bool commit) {
    const double cold_shortfall = cold_.SolveCold(demands);
    const bool cold_verdict = cold_shortfall <= kFeasibilityTol;
    if (warm_.CanWarmStart(demands)) {
      ++warm_probes_;
      const double warm_shortfall = warm_.SolveWarm(demands);
      // The premise of the guard band: warm and cold shortfalls never differ
      // by more than it.
      EXPECT_LE(std::abs(warm_shortfall - cold_shortfall), warm_.guard_band())
          << "warm " << warm_shortfall << " vs cold " << cold_shortfall;
      CheckFlow(demands);
      if ((warm_shortfall <= kFeasibilityTol) != cold_verdict) {
        ++unguarded_flips_;
      }
    }
    const bool verdict = warm_.Feasible(demands, commit);
    EXPECT_EQ(verdict, cold_verdict) << "cold shortfall " << cold_shortfall;
    return cold_verdict;
  }

  /// The warm solver's last flow respects capacities and conservation.
  void CheckFlow(const std::vector<double>& demands) {
    const int e_count = net_.num_entities();
    const int num_vertices = net_.sink() + 1;
    std::vector<double> net_out(static_cast<std::size_t>(num_vertices), 0.0);
    std::vector<double> scale(static_cast<std::size_t>(num_vertices), 0.0);
    int edge = 0;
    auto check = [&](int from, int to, double cap) {
      const double f = warm_.EdgeFlow(edge++);
      const double slack = 64.0 * kEps * cap;
      EXPECT_GE(f, -slack) << "edge " << from << "->" << to;
      EXPECT_LE(f, cap + slack) << "edge " << from << "->" << to;
      net_out[static_cast<std::size_t>(from)] += f;
      net_out[static_cast<std::size_t>(to)] -= f;
      scale[static_cast<std::size_t>(from)] += cap;
      scale[static_cast<std::size_t>(to)] += cap;
    };
    for (int i = 0; i < e_count; ++i) {
      check(0, 1 + i, demands[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < e_count; ++i) {
      const Network::Entity& e = net_.entities[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < e.nodes.size(); ++k) {
        check(1 + i, 1 + e_count + e.nodes[k], e.caps[k]);
      }
    }
    for (int n = 0; n < net_.num_nodes(); ++n) {
      check(1 + e_count + n, net_.sink(),
            net_.node_caps[static_cast<std::size_t>(n)]);
    }
    for (int v = 1; v < net_.sink(); ++v) {
      EXPECT_NEAR(net_out[static_cast<std::size_t>(v)], 0.0,
                  64.0 * kEps * scale[static_cast<std::size_t>(v)])
          << "conservation at vertex " << v;
    }
  }

  const Network& net_;
  FeasibilityFlow warm_;
  FeasibilityFlow cold_;
  int warm_probes_ = 0;
  int unguarded_flips_ = 0;
};

TEST(FeasibilityFlowTest, WarmVerdictsMatchColdOnRandomNetworks) {
  Rng rng(20080801);
  int warm_probes = 0;
  int unguarded_flips = 0;
  std::uint64_t rechecks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Network net = RandomNetwork(rng);
    ProbeChecker checker(net);
    checker.RunWaterFill();
    warm_probes += checker.warm_probes();
    unguarded_flips += checker.unguarded_flips();
    rechecks += checker.warm().cold_rechecks();
    if (HasFailure()) {
      ADD_FAILURE() << "first failing trial: " << trial;
      break;
    }
  }
  // The sequences must exercise warm starts and the guard band, and reach
  // knife edges where a warm verdict without the band is wrong.
  EXPECT_GT(warm_probes, 10'000);
  EXPECT_GT(rechecks, 0u);
  EXPECT_GT(unguarded_flips, 0);
}

TEST(FeasibilityFlowTest, GuardBandCatchesStrandedResidual) {
  // Two entities A, B and two 1,000 MHz nodes; A reaches both nodes, B only
  // the second. The committed probe routes A's 1000 − 5e-10 MHz through the
  // first node, stranding 5e-10 MHz of its CPU — below kFlowEps, so no
  // later path may use it. The next probe asks for 2,000 MHz plus just under
  // kFeasibilityTol. A cold solve fills the first node exactly and falls
  // short by just under the tolerance: routable. The warm solve cannot
  // reach the stranded 5e-10 MHz and falls short by just over it.
  Network net;
  net.node_caps = {1'000.0, 1'000.0};
  net.entities = {{{0, 1}, {1e4, 1e4}}, {{1}, {1e4}}};
  const std::vector<double> base = {1'000.0 - 5e-10, 0.0};
  const std::vector<double> probe = {1'500.0,
                                     500.0 + (kFeasibilityTol - 2e-10)};

  FeasibilityFlow flow;
  net.Build(flow);
  ASSERT_TRUE(flow.Feasible(base, /*commit=*/true));
  ASSERT_TRUE(flow.CanWarmStart(probe));
  const double cold = flow.SolveCold(probe);
  const double warm = flow.SolveWarm(probe);
  EXPECT_LE(cold, kFeasibilityTol);
  EXPECT_GT(warm, kFeasibilityTol) << "an unguarded warm verdict would flip";
  EXPECT_LE(std::abs(warm - cold), flow.guard_band());

  const std::uint64_t rechecks = flow.cold_rechecks();
  EXPECT_TRUE(flow.Feasible(probe, /*commit=*/true));
  EXPECT_EQ(flow.cold_rechecks(), rechecks + 1);
}

TEST(FeasibilityFlowTest, LowerDemandStartsCold) {
  Network net;
  net.node_caps = {10.0};
  net.entities = {{{0}, {10.0}}, {{0}, {10.0}}};
  FeasibilityFlow flow;
  net.Build(flow);
  EXPECT_FALSE(flow.CanWarmStart(std::vector<double>{1.0, 1.0}));
  ASSERT_TRUE(flow.Feasible(std::vector<double>{4.0, 4.0}, /*commit=*/true));
  EXPECT_TRUE(flow.CanWarmStart(std::vector<double>{4.0, 5.0}));
  EXPECT_FALSE(flow.CanWarmStart(std::vector<double>{3.0, 9.0}));
  // An infeasible probe leaves the committed flow in place.
  EXPECT_FALSE(flow.Feasible(std::vector<double>{6.0, 6.0}, /*commit=*/true));
  EXPECT_TRUE(flow.CanWarmStart(std::vector<double>{4.0, 4.0}));
  // A new network drops it.
  net.Build(flow);
  EXPECT_FALSE(flow.CanWarmStart(std::vector<double>{4.0, 4.0}));
}

TEST(FeasibilityFlowTest, ColdSolveRoutesMaxFlow) {
  // Three units of demand on a node with two: the shortfall is one, and the
  // edge flows report the routing.
  Network net;
  net.node_caps = {2.0};
  net.entities = {{{0}, {5.0}}};
  FeasibilityFlow flow;
  net.Build(flow);
  EXPECT_DOUBLE_EQ(flow.SolveCold(std::vector<double>{3.0}), 1.0);
  EXPECT_DOUBLE_EQ(flow.EdgeFlow(0), 2.0);  // demand edge
  EXPECT_DOUBLE_EQ(flow.EdgeFlow(1), 2.0);  // entity → node
  EXPECT_DOUBLE_EQ(flow.EdgeFlow(2), 2.0);  // node → sink
  EXPECT_EQ(flow.augmentations(), 1u);
}

}  // namespace
}  // namespace mwp
