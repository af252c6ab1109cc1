// Max-flow feasibility probes for the load distributor (load_distributor.h).
//
// The distributor's transportation network is source → fill entity (the
// probe's demand) → node (instance cap) → sink (node CPU). Its water-fill
// asks some fifty times per Distribute whether a demand vector routes within
// the caps. FeasibilityFlow answers with Edmonds–Karp over compact
// paired-edge residual arrays: each arc's reverse sits at `pair`, and every
// vertex's out-arcs are stored in ascending head order, so the BFS visits
// neighbours in the order a dense V×V row scan would and a cold solve takes
// the same augmenting paths, bit for bit.
//
// Warm start. Feasible() starts a probe from the committed flow of the last
// feasible probe when no demand is below that probe's: the committed flow is
// then a valid starting flow, and the probe only augments the extra demand.
// A probe with any demand below it starts cold.
//
// Exact verdicts. A max-flow with several entities is not unique, so a warm
// flow may differ from the cold one; its verdict may not. Both solves stop
// when no augmenting path has every residual above kFlowEps, so across the
// final BFS cut each edge leaves at most kFlowEps unused and each shortfall
// lies within edges·kFlowEps (plus rounding) above the true one. A warm
// shortfall farther than that guard band from kFeasibilityTol is therefore
// on the same side as the cold shortfall; one inside the band is re-solved
// cold. Callers that read the routing itself solve cold (SolveCold).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mwp {

/// Residual capacity at or below which an arc counts as saturated.
inline constexpr double kFlowEps = 1e-9;
/// Total source-edge residual a demand set may leave while still counting as
/// routable.
inline constexpr double kFeasibilityTol = 1e-6;

class FeasibilityFlow {
 public:
  /// Starts a new network; drops every edge and the committed flow.
  void Reset(int vertices, int source, int sink);
  /// Adds the next demand edge source → `to`. Demand edges come first, so
  /// the i-th one is edge i; it carries demands[i] in every solve.
  void AddDemandEdge(int to);
  /// Adds a fixed-capacity edge; returns its edge id. At most one edge per
  /// vertex pair, and never both (u, v) and (v, u).
  int AddEdge(int from, int to, double cap);
  /// Lays the edges out as sorted paired arcs; call once after the last Add.
  void Finalize();

  /// Verdict for `demands` (one per demand edge): true when the shortfall —
  /// the summed source-edge residual — is at most kFeasibilityTol. Always
  /// the verdict SolveCold would give. With `commit`, a feasible probe's
  /// flow becomes the warm-start base for later probes.
  bool Feasible(std::span<const double> demands, bool commit);

  /// Edmonds–Karp from zero flow; returns the shortfall. The flow stays
  /// readable through EdgeFlow until the next solve or Feasible call.
  double SolveCold(std::span<const double> demands);
  /// Edmonds–Karp from the committed flow; requires CanWarmStart(demands).
  double SolveWarm(std::span<const double> demands);
  /// True when a flow is committed and no demand is below its demands.
  bool CanWarmStart(std::span<const double> demands) const;

  /// Flow on `edge` in the last solve: its capacity (the demand, for a
  /// demand edge) minus its residual.
  double EdgeFlow(int edge) const;
  /// Half-width of the band around kFeasibilityTol inside which a warm
  /// verdict is re-solved cold.
  double guard_band() const { return guard_band_; }

  /// Monotone counters over the object's lifetime.
  std::uint64_t augmentations() const { return augmentations_; }
  std::uint64_t cold_rechecks() const { return cold_rechecks_; }

 private:
  struct Edge {
    int from;
    int to;
    double cap;
  };

  /// Augments `residual_` until no path has every residual above kFlowEps;
  /// returns the shortfall.
  double Augment();

  int vertices_ = 0;
  int source_ = 0;
  int sink_ = 0;
  std::vector<Edge> edges_;         // demand edges first, in Add order
  int num_demand_edges_ = 0;

  // Paired-arc layout, arcs sorted by (tail, head).
  std::vector<int> first_arc_;      // per vertex, plus one sentinel
  std::vector<int> head_;           // per arc
  std::vector<int> pair_;           // per arc: index of its reverse
  std::vector<int> edge_arc_;       // per edge: its forward arc
  std::vector<double> cold_;        // residuals at zero flow, demands zero
  std::vector<double> residual_;    // working residuals of the last solve
  std::vector<double> committed_;   // residuals of the committed flow
  std::vector<double> committed_demands_;
  bool has_committed_ = false;

  std::vector<int> parent_arc_;     // BFS tree: arc into each vertex
  std::vector<int> bfs_queue_;      // flat FIFO

  double guard_band_ = 0.0;
  std::uint64_t augmentations_ = 0;
  std::uint64_t cold_rechecks_ = 0;
};

}  // namespace mwp
