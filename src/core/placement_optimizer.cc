#include "core/placement_optimizer.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"

namespace mwp {
namespace {

/// Yields the candidates TryImproveNode scores, as moves from the incumbent,
/// in the exact order the sequential nested loops try them: for each base
/// configuration (0, 1, 2, … residents peeled off the node, best-off first)
/// the feasible wish-list prefix, then the migration donors. Feasibility and
/// memory skips do not consume a "tried" slot, matching the sequential
/// loops. The stream peels residents off `best` itself and checks each
/// candidate on the nodes it touches; `best` is whole again whenever the
/// stream is not inside a wish phase, and on destruction.
class CandidateStream {
 public:
  CandidateStream(const PlacementSnapshot& snap, int node,
                  SparsePlacement& best, const PlacementEvaluation& best_eval,
                  const std::vector<int>& wishes)
      : snap_(snap), node_(node), best_(best), wishes_(wishes) {
    if (!wishes_.empty()) {
      // Residents of this node, peeled off in order of descending predicted
      // utility: the best-off applications give way first.
      for (const SparsePlacement::Cell& c : best_.Residents(node_)) {
        for (int k = 0; k < c.count; ++k) residents_.push_back(c.index);
      }
      std::stable_sort(residents_.begin(), residents_.end(), [&](int a, int b) {
        return best_eval.entity_utilities[static_cast<std::size_t>(a)] >
               best_eval.entity_utilities[static_cast<std::size_t>(b)];
      });
    } else {
      phase_ = Phase::kMigration;
    }

    for (int j = 0; j < snap_.num_jobs(); ++j) {
      const int entity = snap_.EntityOfJob(j);
      const int host = best_.FirstNode(entity);
      if (host == kInvalidNode || host == node_) continue;
      donors_.push_back(entity);
    }
    std::stable_sort(donors_.begin(), donors_.end(), [&](int a, int b) {
      return best_eval.entity_utilities[static_cast<std::size_t>(a)] <
             best_eval.entity_utilities[static_cast<std::size_t>(b)];
    });
  }

  CandidateStream(const CandidateStream&) = delete;
  CandidateStream& operator=(const CandidateStream&) = delete;
  ~CandidateStream() { Unpeel(); }

  /// Writes the next candidate into `out`; false when the stream is done.
  bool Next(PlacementMove* out) {
    if (phase_ == Phase::kWish && NextWish(out)) return true;
    phase_ = Phase::kMigration;
    Unpeel();
    return NextMigration(out);
  }

 private:
  enum class Phase { kWish, kMigration };

  /// Puts the peeled residents back.
  void Unpeel() {
    for (; peeled_ > 0; --peeled_) {
      best_.Add(residents_[peeled_ - 1], node_);
    }
  }

  /// True when `best_` with one more instance of `entity` on `to` (and one
  /// fewer on `from`, when given) is feasible; `best_` is left unchanged.
  bool FitsAfter(int entity, int from, int to) {
    if (from != kInvalidNode) best_.Remove(entity, from);
    best_.Add(entity, to);
    const bool feasible = snap_.NodesFeasible(best_, std::span(&to, 1));
    best_.Remove(entity, to);
    if (from != kInvalidNode) best_.Add(entity, from);
    return feasible;
  }

  bool NextWish(PlacementMove* out) {
    while (removals_ <= residents_.size()) {
      if (!base_ready_) {
        for (; peeled_ < removals_; ++peeled_) {
          MWP_DCHECK(best_.Count(residents_[peeled_], node_) > 0);
          best_.Remove(residents_[peeled_], node_);
        }
        free_ = snap_.FreeMemory(best_, node_);
        wish_pos_ = 0;
        tried_ = 0;
        base_ready_ = true;
      }
      while (wish_pos_ < wishes_.size() &&
             tried_ < PlacementOptimizer::kMaxWishesTried) {
        const int w = wishes_[wish_pos_++];
        if (snap_.IsJobEntity(w)) {
          if (best_.InstanceCount(w) > 0) continue;
        } else {
          if (best_.Count(w, node_) > 0) continue;
        }
        if (snap_.EntityMemory(w) > free_ + kEpsilon) continue;
        // The peeled base is feasible, so only this node can break a rule.
        if (!FitsAfter(w, kInvalidNode, node_)) continue;
        ++tried_;
        out->Clear();
        for (std::size_t r = 0; r < removals_; ++r) {
          out->Remove(residents_[r], node_);
        }
        out->Add(w, node_);
        return true;
      }
      ++removals_;
      base_ready_ = false;
    }
    return false;
  }

  bool NextMigration(PlacementMove* out) {
    if (!mig_free_ready_) {
      mig_free_ = snap_.FreeMemory(best_, node_);
      mig_free_ready_ = true;
    }
    while (donor_pos_ < donors_.size() &&
           mig_tried_ < PlacementOptimizer::kMaxMigrationsTried) {
      const int donor = donors_[donor_pos_++];
      if (snap_.EntityMemory(donor) > mig_free_ + kEpsilon) continue;
      const int from = best_.FirstNode(donor);
      MWP_DCHECK(from != kInvalidNode && best_.InstanceCount(donor) == 1);
      if (!FitsAfter(donor, from, node_)) continue;
      ++mig_tried_;
      out->Clear();
      out->Remove(donor, from);
      out->Add(donor, node_);
      return true;
    }
    return false;
  }

  const PlacementSnapshot& snap_;
  const int node_;
  SparsePlacement& best_;
  const std::vector<int>& wishes_;

  Phase phase_ = Phase::kWish;
  std::vector<int> residents_;
  std::size_t removals_ = 0;
  /// Residents currently peeled off best_ (a prefix of residents_).
  std::size_t peeled_ = 0;
  bool base_ready_ = false;
  Megabytes free_ = 0.0;
  std::size_t wish_pos_ = 0;
  int tried_ = 0;

  std::vector<int> donors_;
  std::size_t donor_pos_ = 0;
  int mig_tried_ = 0;
  bool mig_free_ready_ = false;
  Megabytes mig_free_ = 0.0;
};

int ResolveLanes(int search_threads) {
  if (search_threads > 0) return std::min(search_threads, 32);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 32);
}

}  // namespace

struct PlacementOptimizer::SearchState {
  SparsePlacement incumbent;
  std::vector<SparsePlacement> lane_views;
  /// Candidate moves of the current chunk and their scores; kept across
  /// node visits so their buffers are reused.
  std::vector<PlacementMove> chunk;
  std::vector<PlacementEvaluation> evals;
};

PlacementOptimizer::PlacementOptimizer(const PlacementSnapshot* snapshot)
    : PlacementOptimizer(snapshot, Options{}) {}

PlacementOptimizer::PlacementOptimizer(const PlacementSnapshot* snapshot,
                                       Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      evaluator_(snapshot, options_.evaluator) {
  MWP_CHECK(snapshot_ != nullptr);
  MWP_CHECK(options_.max_sweeps >= 1);
  MWP_CHECK(options_.search_threads >= 0);
  lanes_ = ResolveLanes(options_.search_threads);
  scratches_.resize(static_cast<std::size_t>(lanes_));
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

std::vector<int> PlacementOptimizer::WishList(
    const SparsePlacement& p, const PlacementEvaluation& eval) const {
  const PlacementSnapshot& snap = *snapshot_;
  std::vector<int> wishes;
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const int entity = snap.EntityOfJob(j);
    if (p.InstanceCount(entity) == 0) wishes.push_back(entity);
  }
  for (int w = 0; w < snap.num_tx(); ++w) {
    const TxView& tv = snap.tx(w);
    if (tv.arrival_rate <= 1e-12) continue;
    const int entity = snap.EntityOfTx(w);
    const int instances = p.InstanceCount(entity);
    if (tv.max_instances > 0 && instances >= tv.max_instances) continue;
    if (instances >= snap.num_nodes()) continue;
    // The app wants another instance while its utility is short of the
    // model's ceiling (spread capacity could still raise it).
    const Utility u = eval.entity_utilities[static_cast<std::size_t>(entity)];
    const Utility ceiling = tv.app->ModelAt(tv.arrival_rate).max_utility();
    if (u < ceiling - options_.evaluator.tie_tolerance) wishes.push_back(entity);
  }
  // Lowest relative performance first: the neediest application gets the
  // first shot at freed capacity. A non-default fairness objective shifts
  // need by its per-entity bias (Karma: credit holders rank needier).
  const FairnessObjective* objective = evaluator_.objective();
  std::stable_sort(wishes.begin(), wishes.end(), [&](int a, int b) {
    const Utility ua = eval.entity_utilities[static_cast<std::size_t>(a)];
    const Utility ub = eval.entity_utilities[static_cast<std::size_t>(b)];
    if (objective == nullptr) return ua < ub;
    return ua + objective->EntityBias(a) < ub + objective->EntityBias(b);
  });
  return wishes;
}

PlacementEvaluation PlacementOptimizer::ScoreMove(
    const PlacementMove& move, int lane, const Result& result,
    SearchState& state) const {
  SparsePlacement& view = state.lane_views[static_cast<std::size_t>(lane)];
  view.Apply(move);
  PlacementEvaluation eval =
      evaluator_.Evaluate(view, move.nodes,
                          scratches_[static_cast<std::size_t>(lane)],
                          &result.evaluation);
  view.Revert(move);
  return eval;
}

bool PlacementOptimizer::Beats(const PlacementEvaluation& eval,
                               const Result& result) const {
  return !eval.rejected_by_bound &&
         evaluator_.Compare(eval, result.evaluation) > 0;
}

void PlacementOptimizer::Commit(const PlacementMove& move,
                                PlacementEvaluation eval, Result& result,
                                SearchState& state) const {
  // The dense result is patched in place; only a winner is ever written.
  move.ApplyTo(result.placement);
  state.incumbent.Apply(move);
  for (SparsePlacement& view : state.lane_views) view.Apply(move);
  result.evaluation = std::move(eval);
}

bool PlacementOptimizer::TryImproveNode(int node, Result& result,
                                        SearchState& state) const {
  const PlacementSnapshot& snap = *snapshot_;
  const std::vector<int> wishes = WishList(state.incumbent, result.evaluation);
  // The stream borrows the incumbent and must have handed it back whole
  // before a winner is committed into it.
  PlacementMove* winner = nullptr;
  PlacementEvaluation winner_eval;
  std::vector<PlacementMove>& chunk = state.chunk;
  std::vector<PlacementEvaluation>& evals = state.evals;
  // Pull a chunk of candidates (one when sequential), score them — on the
  // pool when there is one — and take the first winner in enumeration
  // order. Candidates past the winner are speculative work the sequential
  // order never reaches: their results are discarded and they do not count
  // as evaluations.
  const std::size_t chunk_target =
      lanes_ > 1 ? static_cast<std::size_t>(lanes_) * 2 : 1;
  chunk.resize(chunk_target);
  {
    CandidateStream stream(snap, node, state.incumbent, result.evaluation,
                           wishes);
    while (winner == nullptr) {
      std::size_t size = 0;
      while (size < chunk_target && stream.Next(&chunk[size])) ++size;
      if (size == 0) break;

      evals.resize(size);
      if (pool_ != nullptr) {
        pool_->ParallelFor(size, [&](int lane, std::size_t i) {
          evals[i] = ScoreMove(chunk[i], lane, result, state);
        });
      } else {
        for (std::size_t i = 0; i < size; ++i) {
          evals[i] = ScoreMove(chunk[i], 0, result, state);
        }
      }

      for (std::size_t i = 0; i < size; ++i) {
        if (Beats(evals[i], result)) {
          result.evaluations += static_cast<int>(i) + 1;
          winner = &chunk[i];
          winner_eval = std::move(evals[i]);
          break;
        }
      }
      if (winner == nullptr) result.evaluations += static_cast<int>(size);
    }
  }
  if (winner == nullptr) return false;
  Commit(*winner, std::move(winner_eval), result, state);
  return true;
}

std::uint64_t PlacementOptimizer::TotalDistributeCalls() const {
  std::uint64_t total = 0;
  for (const EvalScratch& s : scratches_) {
    total += s.distributor.stats().distribute_calls;
  }
  return total;
}

PlacementOptimizer::Result PlacementOptimizer::Optimize() const {
  // Scratch and cache counters are monotone; differencing them around the
  // search scopes the activity to this solve. Single-digit-nanosecond
  // bookkeeping, so tracing costs nothing when nobody reads the Result
  // fields.
  const std::size_t hits_before = evaluator_.cache_hits();
  const std::size_t misses_before = evaluator_.cache_misses();
  const std::uint64_t distributes_before = TotalDistributeCalls();
  Result result = RunSearch();
  result.cache_hits = evaluator_.cache_hits() - hits_before;
  result.cache_misses = evaluator_.cache_misses() - misses_before;
  result.distribute_calls = TotalDistributeCalls() - distributes_before;
  return result;
}

PlacementOptimizer::Result PlacementOptimizer::RunSearch() const {
  const PlacementSnapshot& snap = *snapshot_;
  Result result;
  result.placement = snap.current_placement();
  // The solve's sparse incumbent, checked on every node once; every later
  // candidate is checked on the nodes its move touches.
  SearchState state;
  state.incumbent = SparsePlacement(result.placement);
  state.lane_views.assign(static_cast<std::size_t>(lanes_), state.incumbent);
  std::vector<int> all_nodes(static_cast<std::size_t>(snap.num_nodes()));
  for (int n = 0; n < snap.num_nodes(); ++n) {
    all_nodes[static_cast<std::size_t>(n)] = n;
  }
  result.evaluation =
      evaluator_.Evaluate(state.incumbent, all_nodes, scratches_[0], nullptr);
  result.evaluations = 1;
  result.incumbent_utilities = result.evaluation.sorted_utilities;

  // Paper's shortcut: when nobody wants more capacity, the incumbent (with
  // freshly rebalanced CPU) is the answer.
  if (WishList(state.incumbent, result.evaluation).empty()) {
    result.used_shortcut = true;
    return result;
  }

  // Scores a multi-node bootstrap move on lane 0 when it is feasible on the
  // nodes it touches, and commits it if it wins.
  PlacementMove move;
  auto offer = [&] {
    SparsePlacement& view = state.lane_views[0];
    view.Apply(move);
    const bool feasible = snap.NodesFeasible(view, move.nodes);
    view.Revert(move);
    if (!feasible) return;
    PlacementEvaluation eval = ScoreMove(move, 0, result, state);
    ++result.evaluations;
    if (Beats(eval, result)) Commit(move, std::move(eval), result, state);
  };

  // Transactional bootstrap: a single new instance of a heavily loaded app
  // can sit below its stability boundary, so one-step growth never looks
  // better than nothing. Offer a whole-cluster expansion as one candidate.
  // Each node is visited once, so its free memory is the incumbent's.
  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    if (snap.tx(w).arrival_rate <= 1e-12) continue;
    const SparsePlacement& incumbent = state.incumbent;
    const int cap = snap.tx(w).max_instances;
    move.Clear();
    for (int node = 0; node < snap.num_nodes(); ++node) {
      if (!snap.NodeOnline(node)) continue;
      if (incumbent.Count(entity, node) > 0) continue;
      if (cap > 0 && incumbent.InstanceCount(entity) +
                             static_cast<int>(move.additions.size()) >=
                         cap) {
        break;
      }
      if (snap.EntityMemory(entity) >
          snap.FreeMemory(incumbent, node) + kEpsilon) {
        continue;
      }
      move.Add(entity, node);
    }
    if (!move.additions.empty()) offer();
  }

  // Batch bootstrap, the dual of the transactional one: placing a single
  // queued job raises the batch aggregate by only a few percent — often
  // inside the tie tolerance — yet filling *all* free capacity is a clear
  // win. Offer "start every queued job that fits" as one candidate, jobs in
  // lowest-RP-first order, each on the node with the most free memory.
  {
    // Lane 0's view grows with the move so free memory counts the jobs
    // already added; it is reverted before the move is offered.
    SparsePlacement& view = state.lane_views[0];
    move.Clear();
    for (int w : WishList(state.incumbent, result.evaluation)) {
      if (!snap.IsJobEntity(w)) continue;
      if (view.InstanceCount(w) > 0) continue;
      int best_node = -1;
      Megabytes best_free = snap.EntityMemory(w) - kEpsilon;
      for (int node = 0; node < snap.num_nodes(); ++node) {
        if (!snap.NodeOnline(node)) continue;
        const Megabytes free = snap.FreeMemory(view, node);
        if (free > best_free) {
          best_free = free;
          best_node = node;
        }
      }
      if (best_node < 0) continue;
      view.Add(w, best_node);
      move.Add(w, best_node);
    }
    view.Revert(move);
    if (!move.additions.empty()) offer();
  }

  for (int sweep = 0; sweep < options_.max_sweeps; ++sweep) {
    bool improved = false;
    for (int node = 0; node < snap.num_nodes(); ++node) {
      // A crashed node can host nothing; every candidate targeting it would
      // be infeasible, so skip the whole stream.
      if (!snap.NodeOnline(node)) continue;
      for (int change = 0; change < kMaxChangesPerNode; ++change) {
        if (!TryImproveNode(node, result, state)) break;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return result;
}

}  // namespace mwp
