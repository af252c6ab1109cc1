// From-scratch, dense placement scoring: the oracle PlacementEvaluator is
// tested against.
//
// PlacementEvaluator memoizes across calls (hypothetical-RPF columns, the
// distributor's fill and split memos, per-lane scratch) and scores sparse
// placements patched move by move, and claims that every result is
// bit-for-bit what a fresh, dense computation gives. This is that
// computation: a new LoadDistributor and scratch per call, the job advance
// with each job's node found by a scan of its matrix row, a HypotheticalRpf
// built from scratch over HypotheticalRpf::DefaultGrid(), the transactional
// utilities, a change list diffed cell by cell over the two matrices, and
// the sort. It covers the default options (max-min objective,
// batch-aggregate distributor) and applies no reject bound.
//
// The dense forms the library no longer uses live here too: the
// entities x nodes load matrix, a whole-matrix feasibility pass and the
// cell-by-cell diff.
#pragma once

#include <vector>

#include "cluster/placement.h"
#include "core/evaluator.h"
#include "core/load_distributor.h"
#include "core/snapshot.h"

namespace mwp::testing_oracle {

/// CPU-load matrix L, MHz per (app, node) cell.
class LoadMatrix : public internal::DenseMatrix<MHz> {
 public:
  using DenseMatrix::DenseMatrix;

  /// Total CPU speed allocated to `app` (the paper's ω_m = Σ_n L[m][n]).
  MHz AppAllocation(int app) const { return RowSum(app); }

  /// Total CPU speed consumed on `node`.
  MHz NodeLoad(int node) const { return ColSum(node); }
};

/// The result's per-instance loads as a dense matrix over `num_nodes`
/// nodes (cells without an instance hold 0).
LoadMatrix DenseLoads(const DistributionResult& result, int num_nodes);

/// First node hosting `app` (a scan of its row), or kInvalidNode.
int FirstNodeOf(const PlacementMatrix& p, int app);

/// PlacementSnapshot::IsFeasible's rules in one pass over the whole matrix.
bool ReferenceIsFeasible(const PlacementSnapshot& snap,
                         const PlacementMatrix& p);

/// DiffPlacements computed cell by cell over the two matrices.
std::vector<PlacementChange> ReferenceDiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume);

/// Distributes feasible placement `p` with a new distributor and scratch;
/// `placed` is recomputed from the matrix rows.
DistributionResult ReferenceDistribute(const PlacementSnapshot& snap,
                                       const PlacementMatrix& p);

/// Scores feasible placement `p` of `snap` with nothing reused from any
/// earlier call.
PlacementEvaluation ReferenceEvaluate(const PlacementSnapshot& snap,
                                      const PlacementMatrix& p);

}  // namespace mwp::testing_oracle
