// Traced pass: spans kept in memory, and per-layer figures taken by timing
// the layers' public entry points on the exact inputs of recorded cycles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/cycle_trace.h"

namespace perfbench {

/// In-memory span log. A span is a named interval on the steady clock with
/// the span that caused it; spans of one run share a run id. Written out
/// once, when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
  };

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span whose parent is the innermost open one.
  int Begin(std::string name);
  void End(int id);
  /// Records a closed span under the innermost open one (or `parent`).
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent);
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: {count, total seconds, self seconds}, where self time
  /// is the span's duration minus the part its child spans cover.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> ByName() const;

  bool WriteJsonl(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.Begin(std::move(name))) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

std::int64_t SteadyNs();

/// Figures from replaying every recorded cycle at one search lane.
struct ReplayFigures {
  int cycles = 0;            ///< cycles with a full input record
  int shortcut_cycles = 0;
  int equal_cycles = 0;      ///< ReplayCycle verdict "equal", no regression
  /// One line per cycle whose replay was not "equal".
  std::vector<std::string> failures;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<double> solve_ms;       ///< per non-shortcut cycle
  std::vector<double> replay_ms;      ///< ReplayCycle, per cycle
  std::vector<double> distribute_us;  ///< warm calls on the decided placement
  std::vector<double> evaluate_us;    ///< warm calls on the decided placement
  std::vector<double> hyprpf_build_us;
  std::uint64_t distribute_calls = 0;
  std::uint64_t flow_probes = 0;
  /// Sum over monolithic searching cycles of evaluations x that cycle's
  /// median Distribute time, and of that cycle's solve time.
  double est_distribute_s = 0.0;
  double est_solve_s = 0.0;
  /// Sharded solver: the recorded solve when the run was sharded, else a
  /// what-if sharded re-solve of the monolithic recording.
  std::vector<double> sharded_solve_ms;  ///< per cycle
  std::vector<double> cell_ms;           ///< per cell solve
  int cross_cell_transfers = 0;
};

/// Cell size of the what-if sharded re-solve of monolithic recordings: two
/// cells on a 25-node cluster.
inline constexpr int kWhatIfCellSize = 13;

/// Replays every cycle of `traces` that carries its full input: rebuilds it
/// with replay::ReconstructedCycle, times the optimizer, hypothetical-RPF
/// construction, LoadDistributor::Distribute and PlacementEvaluator::Evaluate
/// on it, and checks replay::ReplayCycle's verdict at 1e-9. Monolithic
/// recordings are also re-solved sharded (kWhatIfCellSize) to time the
/// sharded solver and its rebalancer on the same input.
ReplayFigures ReplayCycles(const std::vector<mwp::obs::CycleTrace>& traces,
                           SpanLog& spans);

}  // namespace perfbench
