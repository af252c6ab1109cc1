#include "cluster/placement.h"

#include <algorithm>
#include <sstream>

namespace mwp {

std::vector<int> PlacementMatrix::NodesOf(int app) const {
  std::vector<int> nodes;
  for (int n = 0; n < num_nodes(); ++n) {
    if (at(app, n) > 0) nodes.push_back(n);
  }
  return nodes;
}

std::string PlacementMatrix::ToString() const {
  std::ostringstream os;
  for (int m = 0; m < num_apps(); ++m) {
    os << "app " << m << ":";
    for (int n = 0; n < num_nodes(); ++n) os << ' ' << at(m, n);
    os << '\n';
  }
  return os.str();
}

void PlacementMove::Clear() {
  removals.clear();
  additions.clear();
  nodes.clear();
}

namespace {

void Touch(std::vector<int>& nodes, int node) {
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
  }
}

/// Adds `delta` to the cell with `index` in the sorted list, inserting or
/// erasing it as its count leaves or reaches zero; returns the change in
/// the number of stored cells.
int BumpCell(std::vector<SparsePlacement::Cell>& cells, int index,
             int delta) {
  auto it = std::lower_bound(
      cells.begin(), cells.end(), index,
      [](const SparsePlacement::Cell& c, int i) { return c.index < i; });
  if (it == cells.end() || it->index != index) {
    cells.insert(it, SparsePlacement::Cell{index, delta});
    return 1;
  }
  if ((it->count += delta) == 0) {
    cells.erase(it);
    return -1;
  }
  return 0;
}

}  // namespace

void PlacementMove::Remove(int entity, int node) {
  removals.push_back(Instance{entity, node});
  Touch(nodes, node);
}

void PlacementMove::Add(int entity, int node) {
  additions.push_back(Instance{entity, node});
  Touch(nodes, node);
}

void PlacementMove::ApplyTo(PlacementMatrix& p) const {
  for (const Instance& r : removals) p.at(r.entity, r.node) -= 1;
  for (const Instance& a : additions) p.at(a.entity, a.node) += 1;
}

void SparsePlacement::Assign(const PlacementMatrix& p) {
  by_entity_.resize(static_cast<std::size_t>(p.num_apps()));
  by_node_.resize(static_cast<std::size_t>(p.num_nodes()));
  for (std::vector<Cell>& cells : by_entity_) cells.clear();
  for (std::vector<Cell>& cells : by_node_) cells.clear();
  instance_count_.assign(static_cast<std::size_t>(p.num_apps()), 0);
  num_cells_ = 0;
  for (int e = 0; e < p.num_apps(); ++e) {
    const int* row = p.RowData(e);
    for (int n = 0; n < p.num_nodes(); ++n) {
      if (row[n] == 0) continue;
      by_entity_[static_cast<std::size_t>(e)].push_back(Cell{n, row[n]});
      by_node_[static_cast<std::size_t>(n)].push_back(Cell{e, row[n]});
      instance_count_[static_cast<std::size_t>(e)] += row[n];
      ++num_cells_;
    }
  }
}

int SparsePlacement::Count(int entity, int node) const {
  for (const Cell& c : NodesOf(entity)) {
    if (c.index == node) return c.count;
    if (c.index > node) break;
  }
  return 0;
}

int SparsePlacement::FirstNode(int entity) const {
  for (const Cell& c : NodesOf(entity)) {
    if (c.count > 0) return c.index;
  }
  return kInvalidNode;
}

void SparsePlacement::Bump(int entity, int node, int delta) {
  MWP_CHECK_MSG(entity >= 0 && entity < num_entities() && node >= 0 &&
                    node < num_nodes(),
                "cell (" << entity << "," << node << ") out of "
                         << num_entities() << "x" << num_nodes());
  num_cells_ += BumpCell(by_entity_[static_cast<std::size_t>(entity)], node,
                         delta);
  BumpCell(by_node_[static_cast<std::size_t>(node)], entity, delta);
  instance_count_[static_cast<std::size_t>(entity)] += delta;
}

void SparsePlacement::Apply(const PlacementMove& move) {
  for (const PlacementMove::Instance& r : move.removals) {
    Remove(r.entity, r.node);
  }
  for (const PlacementMove::Instance& a : move.additions) {
    Add(a.entity, a.node);
  }
}

void SparsePlacement::Revert(const PlacementMove& move) {
  for (const PlacementMove::Instance& a : move.additions) {
    Remove(a.entity, a.node);
  }
  for (const PlacementMove::Instance& r : move.removals) {
    Add(r.entity, r.node);
  }
}

PlacementMatrix SparsePlacement::ToMatrix() const {
  PlacementMatrix p(num_entities(), num_nodes());
  for (int e = 0; e < num_entities(); ++e) {
    for (const Cell& c : NodesOf(e)) p.at(e, c.index) = c.count;
  }
  return p;
}

const char* ToString(PlacementChange::Kind kind) {
  switch (kind) {
    case PlacementChange::Kind::kStart:
      return "start";
    case PlacementChange::Kind::kStop:
      return "stop";
    case PlacementChange::Kind::kSuspend:
      return "suspend";
    case PlacementChange::Kind::kResume:
      return "resume";
    case PlacementChange::Kind::kMigrate:
      return "migrate";
  }
  return "?";
}

std::vector<PlacementChange> DiffPlacements(
    const SparsePlacement& from, const SparsePlacement& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume) {
  MWP_CHECK(from.num_entities() == to.num_entities());
  MWP_CHECK(from.num_nodes() == to.num_nodes());
  MWP_CHECK(static_cast<int>(removal_is_suspend.size()) == from.num_entities());
  MWP_CHECK(static_cast<int>(addition_is_resume.size()) == from.num_entities());

  using Cell = SparsePlacement::Cell;
  std::vector<PlacementChange> changes;
  std::vector<int> removed_nodes;
  std::vector<int> added_nodes;
  for (int m = 0; m < from.num_entities(); ++m) {
    const std::span<const Cell> a = from.NodesOf(m);
    const std::span<const Cell> b = to.NodesOf(m);
    if (std::equal(a.begin(), a.end(), b.begin(), b.end())) continue;
    // Per-node deltas for this app, merged over the two ascending lists;
    // removals and additions are paired into migrations first (a removal on
    // one node with a matching addition on another is one live migration,
    // not a stop + start).
    removed_nodes.clear();
    added_nodes.clear();
    std::size_t i = 0, k = 0;
    while (i < a.size() || k < b.size()) {
      int n;
      int delta;
      if (k == b.size() || (i < a.size() && a[i].index < b[k].index)) {
        n = a[i].index;
        delta = -a[i++].count;
      } else if (i == a.size() || b[k].index < a[i].index) {
        n = b[k].index;
        delta = b[k++].count;
      } else {
        n = a[i].index;
        delta = b[k++].count - a[i++].count;
      }
      for (; delta < 0; ++delta) removed_nodes.push_back(n);
      for (; delta > 0; --delta) added_nodes.push_back(n);
    }
    std::size_t pairs = std::min(removed_nodes.size(), added_nodes.size());
    for (std::size_t p = 0; p < pairs; ++p) {
      changes.push_back(PlacementChange{PlacementChange::Kind::kMigrate, m,
                                        removed_nodes[p], added_nodes[p]});
    }
    for (std::size_t p = pairs; p < removed_nodes.size(); ++p) {
      changes.push_back(PlacementChange{
          removal_is_suspend[static_cast<std::size_t>(m)]
              ? PlacementChange::Kind::kSuspend
              : PlacementChange::Kind::kStop,
          m, removed_nodes[p], kInvalidNode});
    }
    for (std::size_t p = pairs; p < added_nodes.size(); ++p) {
      changes.push_back(PlacementChange{
          addition_is_resume[static_cast<std::size_t>(m)]
              ? PlacementChange::Kind::kResume
              : PlacementChange::Kind::kStart,
          m, kInvalidNode, added_nodes[p]});
    }
  }
  return changes;
}

std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume) {
  MWP_CHECK(from.num_apps() == to.num_apps());
  MWP_CHECK(from.num_nodes() == to.num_nodes());
  return DiffPlacements(SparsePlacement(from), SparsePlacement(to),
                        removal_is_suspend, addition_is_resume);
}

std::vector<PlacementChange> DiffPlacements(const PlacementMatrix& from,
                                            const PlacementMatrix& to) {
  std::vector<bool> flags(static_cast<std::size_t>(from.num_apps()), false);
  return DiffPlacements(from, to, flags, flags);
}

}  // namespace mwp
