// From-scratch placement scoring: the oracle PlacementEvaluator is tested
// against.
//
// PlacementEvaluator memoizes across calls (hypothetical-RPF columns, the
// distributor's fill and split memos, per-lane scratch) and claims that
// every result is bit-for-bit what a fresh computation gives. This is that
// fresh computation: a new LoadDistributor and scratch per call, the same
// job advance, a HypotheticalRpf built from scratch over
// HypotheticalRpf::DefaultGrid(), the transactional utilities, the change
// list and the sort. It covers the default options (max-min objective,
// batch-aggregate distributor) and applies no reject bound.
#pragma once

#include "core/evaluator.h"
#include "core/snapshot.h"

namespace mwp::testing_oracle {

/// Scores feasible placement `p` of `snap` with nothing reused from any
/// earlier call.
PlacementEvaluation ReferenceEvaluate(const PlacementSnapshot& snap,
                                      const PlacementMatrix& p);

}  // namespace mwp::testing_oracle
