// Placements (the paper's P matrix, §3.2), dense and sparse.
//
// PlacementMatrix is a dense app-major array over a snapshot of M
// applications and N nodes: cell P[m][n] counts instances of application m
// on node n. It is the form placements take at the API edges — the
// snapshot's current placement, the optimizer's result, a replayed
// decision.
//
// SparsePlacement is the form the search scores. It keeps each entity's
// instance count and hosting nodes, and each node's residents, and is
// patched one instance at a time. The optimizer builds one from the
// incumbent per solve and expresses every candidate as the incumbent plus a
// PlacementMove (a few instances removed from and added to the nodes the
// move touches), so producing, checking and scoring a candidate costs in
// proportion to what it changed, not to M x N. A dense matrix is written
// only for a committed winner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace mwp {

namespace internal {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int num_apps, int num_nodes, T fill = T{})
      : num_apps_(num_apps),
        num_nodes_(num_nodes),
        cells_(static_cast<std::size_t>(num_apps) *
                   static_cast<std::size_t>(num_nodes),
               fill) {
    MWP_CHECK(num_apps >= 0 && num_nodes >= 0);
  }

  int num_apps() const { return num_apps_; }
  int num_nodes() const { return num_nodes_; }

  T& at(int app, int node) {
    BoundsCheck(app, node);
    return cells_[static_cast<std::size_t>(app) *
                      static_cast<std::size_t>(num_nodes_) +
                  static_cast<std::size_t>(node)];
  }
  const T& at(int app, int node) const {
    BoundsCheck(app, node);
    return cells_[static_cast<std::size_t>(app) *
                      static_cast<std::size_t>(num_nodes_) +
                  static_cast<std::size_t>(node)];
  }

  /// Direct pointer to one application's row (num_nodes() cells). Bounds-
  /// checks the row once — for hot loops that would otherwise pay a
  /// per-cell check through at().
  const T* RowData(int app) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_, "row " << app << " out of "
                                                      << num_apps_);
    return cells_.data() +
           static_cast<std::size_t>(app) * static_cast<std::size_t>(num_nodes_);
  }

  /// Sum over nodes for one application (a row sum).
  T RowSum(int app) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_, "row " << app << " out of "
                                                      << num_apps_);
    const std::size_t base =
        static_cast<std::size_t>(app) * static_cast<std::size_t>(num_nodes_);
    T total{};
    for (int n = 0; n < num_nodes_; ++n) {
      total += cells_[base + static_cast<std::size_t>(n)];
    }
    return total;
  }

  /// Sum over applications for one node (a column sum).
  T ColSum(int node) const {
    MWP_CHECK_MSG(node >= 0 && node < num_nodes_, "col " << node << " out of "
                                                         << num_nodes_);
    const auto stride = static_cast<std::size_t>(num_nodes_);
    T total{};
    for (std::size_t i = static_cast<std::size_t>(node); i < cells_.size();
         i += stride) {
      total += cells_[i];
    }
    return total;
  }

  bool operator==(const DenseMatrix&) const = default;

 private:
  void BoundsCheck(int app, int node) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_ && node >= 0 && node < num_nodes_,
                  "matrix index (" << app << "," << node << ") out of "
                                   << num_apps_ << "x" << num_nodes_);
  }

  int num_apps_ = 0;
  int num_nodes_ = 0;
  std::vector<T> cells_;
};

}  // namespace internal

/// Instance-count matrix P. Apps and nodes are snapshot-local indices.
class PlacementMatrix : public internal::DenseMatrix<int> {
 public:
  using DenseMatrix::DenseMatrix;

  /// Number of instances of `app` across the cluster.
  int InstanceCount(int app) const { return RowSum(app); }

  /// Number of instances hosted on `node`.
  int InstancesOnNode(int node) const { return ColSum(node); }

  /// True when `app` has at least one instance anywhere.
  bool IsPlaced(int app) const { return InstanceCount(app) > 0; }

  /// Nodes currently hosting `app`, in index order.
  std::vector<int> NodesOf(int app) const;

  std::string ToString() const;
};

/// A candidate's difference from the placement it was derived from:
/// instances removed, then instances added, one entry per instance.
struct PlacementMove {
  struct Instance {
    int entity = kInvalidApp;
    int node = kInvalidNode;
    bool operator==(const Instance&) const = default;
  };
  std::vector<Instance> removals;
  std::vector<Instance> additions;
  /// Every node the move touches, once each, in first-touch order.
  std::vector<int> nodes;

  void Clear();
  void Remove(int entity, int node);
  void Add(int entity, int node);
  /// Applies the move to a dense matrix in place.
  void ApplyTo(PlacementMatrix& p) const;
};

/// Sparse placement: per entity its instance count and an ascending
/// (node, count) list, per node its residents as an ascending
/// (entity, count) list. Zero cells are not stored; any other count is (a
/// negative one only ever comes from a hand-built matrix). Both lists are
/// kept sorted, so a placement has exactly one representation: Apply then
/// Revert restores the structure bit for bit.
class SparsePlacement {
 public:
  /// One stored cell: `index` is the node in an entity's list and the
  /// entity in a node's list.
  struct Cell {
    int index = 0;
    int count = 0;
    bool operator==(const Cell&) const = default;
  };

  SparsePlacement() = default;
  explicit SparsePlacement(const PlacementMatrix& p) { Assign(p); }

  /// Rebuilds the lists from `p`, reusing their buffers.
  void Assign(const PlacementMatrix& p);

  int num_entities() const { return static_cast<int>(by_entity_.size()); }
  int num_nodes() const { return static_cast<int>(by_node_.size()); }

  /// Stored (non-zero) cells.
  int num_cells() const { return num_cells_; }
  /// Instances of `entity` across the cluster (the matrix row sum).
  int InstanceCount(int entity) const {
    return instance_count_[static_cast<std::size_t>(entity)];
  }
  /// Nodes hosting `entity`, ascending.
  std::span<const Cell> NodesOf(int entity) const {
    return by_entity_[static_cast<std::size_t>(entity)];
  }
  /// Entities on `node`, ascending.
  std::span<const Cell> Residents(int node) const {
    return by_node_[static_cast<std::size_t>(node)];
  }
  /// The matrix cell (entity, node).
  int Count(int entity, int node) const;
  /// First node with a positive count of `entity`, or kInvalidNode. O(1)
  /// for a single-instance entity.
  int FirstNode(int entity) const;

  /// One instance more (Add) or less (Remove) in cell (entity, node).
  void Add(int entity, int node) { Bump(entity, node, +1); }
  void Remove(int entity, int node) { Bump(entity, node, -1); }
  /// Applies `move` (removals, then additions); Revert undoes it.
  void Apply(const PlacementMove& move);
  void Revert(const PlacementMove& move);

  PlacementMatrix ToMatrix() const;

  bool operator==(const SparsePlacement&) const = default;

 private:
  void Bump(int entity, int node, int delta);

  std::vector<std::vector<Cell>> by_entity_;
  std::vector<std::vector<Cell>> by_node_;
  std::vector<int> instance_count_;
  int num_cells_ = 0;
};

/// One reconfiguration action produced by a placement controller.
struct PlacementChange {
  enum class Kind {
    kStart,    ///< boot a new instance (fresh VM)
    kStop,     ///< destroy an instance (job completed or app shrunk)
    kSuspend,  ///< suspend a job VM, preserving progress
    kResume,   ///< resume a previously suspended job VM
    kMigrate,  ///< move an instance between nodes
  };

  Kind kind;
  int app = kInvalidApp;          ///< snapshot-local app index
  int from_node = kInvalidNode;   ///< source node (kStop/kSuspend/kMigrate)
  int to_node = kInvalidNode;     ///< target node (kStart/kResume/kMigrate)

  bool operator==(const PlacementChange&) const = default;
};

const char* ToString(PlacementChange::Kind kind);

/// Computes the per-app instance additions/removals between two placements
/// over the same snapshot, pairing a removal with an addition of the same app
/// as a migration. The caller classifies non-migration removals as stop vs
/// suspend (that depends on workload state the matrix does not carry), via
/// the two predicates. Changes come out by app, then node: per app the
/// migrations first (i-th removed node with i-th added node), then the
/// unpaired removals, then the unpaired additions. The cost is one compare
/// of each app's sparse node lists.
std::vector<PlacementChange> DiffPlacements(
    const SparsePlacement& from, const SparsePlacement& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume);

/// Dense overloads: build the sparse forms and diff those.
std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume);

/// Convenience overload: all removals are stops, all additions are starts.
std::vector<PlacementChange> DiffPlacements(const PlacementMatrix& from,
                                            const PlacementMatrix& to);

}  // namespace mwp
