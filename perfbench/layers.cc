#include "layers.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/stats.h"
#include "core/evaluator.h"
#include "core/load_distributor.h"
#include "core/placement_optimizer.h"
#include "core/sharded_optimizer.h"
#include "replay/replay.h"

namespace perfbench {
namespace {

/// Warm calls timed per recorded cycle for Distribute and Evaluate, after
/// one untimed call that fills the per-snapshot memo tables.
constexpr int kWarmCalls = 5;

double MicrosSince(std::int64_t start_ns) {
  return static_cast<double>(SteadyNs() - start_ns) * 1e-3;
}

mwp::PlacementMatrix DecidedPlacement(const mwp::obs::CycleTrace& trace,
                                      const mwp::PlacementSnapshot& snapshot) {
  mwp::PlacementMatrix p(snapshot.num_entities(), snapshot.num_nodes());
  for (const mwp::obs::TracePlacementCell& cell : trace.decision->placement) {
    p.at(cell.entity, cell.node) = cell.count;
  }
  return p;
}

/// ShardedPlacementOptimizer at one cell thread; appends its per-cell solve
/// times and cross-cell transfers to `f`.
mwp::PlacementOptimizer::Result SolveSharded(
    const mwp::PlacementSnapshot& snapshot,
    const mwp::PlacementOptimizer::Options& options,
    const mwp::obs::TraceSolverOptions& recorded, int cell_size,
    ReplayFigures& f) {
  mwp::ShardedPlacementOptimizer::Options sharded;
  sharded.cell_size = cell_size;
  sharded.partition_seed = recorded.partition_seed;
  sharded.max_cross_cell_moves = recorded.max_cross_cell_moves;
  sharded.cell_threads = 1;
  sharded.cell = options;
  mwp::ShardedPlacementOptimizer::Result r =
      mwp::ShardedPlacementOptimizer(&snapshot, sharded).Optimize();
  for (const mwp::Seconds s : r.cell_solve_seconds) f.cell_ms.push_back(s * 1e3);
  f.cross_cell_transfers += r.cross_cell_transfers;
  return std::move(r.global);
}

}  // namespace

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(std::string name) {
  const int id = Add(std::move(name), SteadyNs(), 0, current());
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = SteadyNs();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after it.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int SpanLog::Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SpanLog::Totals> SpanLog::ByName() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += static_cast<double>(d) * 1e-9;
    t.self_s += static_cast<double>(d - child_ns[i]) * 1e-9;
  }
  return totals;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << ",\"run_id\":\"" << run_id_ << "\"}\n";
  }
  return static_cast<bool>(out);
}

ReplayFigures ReplayCycles(const std::vector<mwp::obs::CycleTrace>& traces,
                           SpanLog& spans) {
  ReplayFigures f;
  mwp::replay::ReplayOptions replay_options;
  replay_options.rp_tolerance = 1e-9;
  replay_options.search_threads = 1;

  for (const mwp::obs::CycleTrace& trace : traces) {
    if (!trace.input.has_value() || !trace.decision.has_value()) continue;
    ++f.cycles;
    const ScopedSpan cycle_span(spans, "replay.cycle");

    const int reconstruct = spans.Begin("replay.reconstruct");
    const mwp::replay::ReconstructedCycle cycle(*trace.input);
    const mwp::PlacementSnapshot& snapshot = cycle.snapshot();
    const mwp::PlacementOptimizer::Options options = cycle.OptimizerOptions(1);
    const mwp::PlacementMatrix decided = DecidedPlacement(trace, snapshot);
    spans.End(reconstruct);

    // Optimizer as recorded (monolithic or sharded), one lane.
    const int recorded_cells = cycle.solver_options().cell_size;
    mwp::PlacementOptimizer::Result result;
    const std::int64_t solve_start = SteadyNs();
    if (recorded_cells > 0) {
      const ScopedSpan span(spans, "optimizer.optimize");
      result = SolveSharded(snapshot, options, cycle.solver_options(),
                            recorded_cells, f);
    } else {
      const ScopedSpan span(spans, "optimizer.optimize");
      result = mwp::PlacementOptimizer(&snapshot, options).Optimize();
    }
    const double solve_ms = MicrosSince(solve_start) * 1e-3;
    if (recorded_cells > 0) {
      f.sharded_solve_ms.push_back(solve_ms);
    } else {
      const std::int64_t whatif_start = SteadyNs();
      const ScopedSpan span(spans, "sharded.optimize");
      SolveSharded(snapshot, options, cycle.solver_options(), kWhatIfCellSize,
                   f);
      f.sharded_solve_ms.push_back(MicrosSince(whatif_start) * 1e-3);
    }
    f.evaluations += static_cast<std::uint64_t>(result.evaluations);
    f.cache_hits += result.cache_hits;
    f.cache_misses += result.cache_misses;
    if (result.used_shortcut) {
      ++f.shortcut_cycles;
    } else {
      f.solve_ms.push_back(solve_ms);
    }

    // Hypothetical RPF: built by the LoadDistributor's constructor.
    const std::int64_t build_start = SteadyNs();
    int id = spans.Begin("hyprpf.build");
    const mwp::LoadDistributor distributor(&snapshot,
                                           options.evaluator.distributor);
    spans.End(id);
    f.hyprpf_build_us.push_back(MicrosSince(build_start));

    // LoadDistributor::Distribute with a caller-owned scratch.
    mwp::DistributorScratch scratch;
    distributor.Distribute(decided, scratch);
    const mwp::DistributorScratch::Stats before = scratch.stats();
    mwp::Sample cycle_distribute;
    for (int k = 0; k < kWarmCalls; ++k) {
      const std::int64_t t0 = SteadyNs();
      id = spans.Begin("distributor.distribute");
      distributor.Distribute(decided, scratch);
      spans.End(id);
      cycle_distribute.Add(MicrosSince(t0));
    }
    f.distribute_calls += scratch.stats().distribute_calls - before.distribute_calls;
    f.flow_probes += scratch.stats().flow_probes - before.flow_probes;
    for (const double us : cycle_distribute.values()) f.distribute_us.push_back(us);
    // A sharded solve's evaluations are mostly per cell, on snapshots far
    // smaller than the whole-snapshot placement timed here.
    if (!result.used_shortcut && recorded_cells == 0) {
      f.est_distribute_s += result.evaluations * cycle_distribute.median() * 1e-6;
      f.est_solve_s += solve_ms * 1e-3;
    }

    // PlacementEvaluator::Evaluate (its own distributor and column cache).
    id = spans.Begin("evaluator.construct");
    const mwp::PlacementEvaluator evaluator(&snapshot, options.evaluator);
    spans.End(id);
    evaluator.Evaluate(decided);
    for (int k = 0; k < kWarmCalls; ++k) {
      const std::int64_t t0 = SteadyNs();
      id = spans.Begin("evaluator.evaluate");
      evaluator.Evaluate(decided);
      spans.End(id);
      f.evaluate_us.push_back(MicrosSince(t0));
    }

    // The replay harness's own verdict on the recorded decision.
    const std::int64_t replay_start = SteadyNs();
    id = spans.Begin("replay.replay_cycle");
    const mwp::replay::CycleReplayDiff diff =
        mwp::replay::ReplayCycle(trace, replay_options);
    spans.End(id);
    f.replay_ms.push_back(MicrosSince(replay_start) * 1e-3);
    if (diff.replayed && !diff.Regressed(replay_options) &&
        diff.verdict == mwp::replay::Verdict::kEqual) {
      ++f.equal_cycles;
    } else {
      std::ostringstream line;
      line << trace.run_id << " cycle " << trace.cycle << ": verdict "
           << mwp::replay::ToString(diff.verdict) << ", "
           << diff.placement_cell_diffs << " cell diffs, rp drift "
           << diff.rp_drift;
      f.failures.push_back(line.str());
    }
  }
  return f;
}

}  // namespace perfbench
