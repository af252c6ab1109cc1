// perfbench: the repository benchmark's binary (run.py builds and invokes
// it; perfbench/README.md defines every metric).
//
//   perfbench --workload exp1-paper|storm-25|alibaba-100 --seed N
//             --seconds S --trace 0|1 [--out DIR]
//   perfbench --calibrate | --setup-only --workload W --seed N
//             (child modes: print one calibration or set-up time)
//
// --trace 0 repeats whole passes of the workload for S seconds with tracing
// off and reports the end-to-end metrics. --trace 1 runs one untraced and
// one fully traced pass, replays every recorded cycle through the layers'
// public entry points at one search lane, writes the spans to
// DIR/spans-<workload>.jsonl and reports the per-layer metrics. Both modes
// check the outputs; the last stdout line is the JSON result, printed only
// when every check passed (exit 0). A failed check exits 1, bad usage 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "calibration.h"
#include "common/stats.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value; "n/a" marks non-use
};

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
    if (!ok) ++failed_;
  }
  int failed() const { return failed_; }

 private:
  int failed_ = 0;
};

double Percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  mwp::Sample s;
  for (const double x : v) s.Add(x);
  return s.Percentile(p);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ServiceDriven(const std::string& workload) {
  return workload != "alibaba-100";
}

/// The resolved thread counts every result is recorded with.
std::string Threads(const std::string& workload) {
  const std::string hw = std::to_string(HardwareThreads());
  return ServiceDriven(workload)
             ? "search lanes " + std::to_string(kSearchLanes) +
                   ", hardware threads " + hw
             : "cell threads " + hw + " (hardware concurrency)";
}

/// The result's operation counts: every event published to the controller
/// service is one attempted operation, failed when the inbox shed it.
/// alibaba-100 is not service-driven; its operations are the job arrivals
/// and control cycles RunScenario handled, none of which can fail.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcomes CountOutcomes(const std::string& workload, const PassResult& r) {
  if (!ServiceDriven(workload)) {
    return {r.jobs_submitted + static_cast<std::uint64_t>(r.cycles), 0};
  }
  return {r.decisions.published, r.decisions.shed};
}

/// Goal misses: completed jobs with RP < 0, transactional samples over
/// their response goal and shed events, over completed jobs, samples and
/// published events.
double FailedRatio(const PassResult& r) {
  const auto missed = static_cast<double>(
      std::count_if(r.job_rp.begin(), r.job_rp.end(),
                    [](double rp) { return rp < 0.0; }) +
      r.tx_over_goal + static_cast<long>(r.decisions.shed));
  return Ratio(missed, static_cast<double>(r.job_rp.size() + r.tx_samples +
                                           r.decisions.published));
}

void CheckPass(const std::string& workload, const PassResult& r,
               Checks& checks) {
  if (workload == "exp1-paper") {
    checks.Expect(r.jobs_completed == 800 && r.jobs_submitted == 800,
                  "exp1-paper completes 800/800 jobs (" +
                      std::to_string(r.jobs_completed) + ")");
    checks.Expect(std::abs(r.max_hypothetical_rp - 0.63) < 0.005,
                  "exp1-paper keeps the 0.63 hypothetical-RP ceiling (max " +
                      Number(r.max_hypothetical_rp) + ")");
    checks.Expect(r.disruptive_changes == 0,
                  "exp1-paper makes 0 disruptive changes (" +
                      std::to_string(r.disruptive_changes) + ")");
  }
  if (ServiceDriven(workload)) {
    checks.Expect(r.decisions.published > 0 &&
                      r.decisions.published ==
                          r.decisions.decided + r.decisions.shed,
                  "published " + std::to_string(r.decisions.published) +
                      " = decided " + std::to_string(r.decisions.decided) +
                      " + shed " + std::to_string(r.decisions.shed));
  }
  checks.Expect(r.cycles > 0 && r.jobs_completed > 0,
                std::to_string(r.cycles) + " control cycles ran and " +
                    std::to_string(r.jobs_completed) + " of " +
                    std::to_string(r.jobs_submitted) + " jobs completed");
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Number(m.value) << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ')';
    std::cout << '\n';
  }
}

void PrintResult(const Outcomes& o, const std::vector<Metric>& metrics) {
  std::ostringstream js;
  js << "{\"correct\": true, \"attempted\": " << o.attempted
     << ", \"failed\": " << o.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js << ", ";
    js << '"' << metrics[i].name << "\": {\"value\": "
       << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string RunId(const std::string& workload, std::uint64_t seed) {
  return workload + "-s" + std::to_string(seed);
}

/// One pass with tracing off (the recorder keeps per-cycle summaries only).
PassResult RunUntracedPass(const std::string& workload, std::uint64_t seed) {
  mwp::obs::TraceRecorder recorder;
  PassOptions options;
  options.seed = seed;
  options.recorder = &recorder;
  options.run_id = RunId(workload, seed);
  return RunPass(workload, options);
}

int Finish(const Checks& checks, const std::string& workload,
           const PassResult& pass, const std::vector<Metric>& metrics) {
  if (checks.failed() > 0) {
    std::cerr << "perfbench: " << checks.failed()
              << " output check(s) failed\n";
    return 1;
  }
  PrintResult(CountOutcomes(workload, pass), metrics);
  return 0;
}

// --- --trace 0 -----------------------------------------------------------

/// Set-up is timed alone, kSetupsPerProcess times in each of
/// kSetupProcesses fresh processes. One process sets up markedly faster or
/// slower than another (its heap layout differs), so set-up times from a
/// single process come in two modes; the median over processes evens that.
constexpr int kSetupsPerProcess = 21;
constexpr int kSetupProcesses = 5;

/// `--setup-only`: the median host seconds of kSetupsPerProcess set-ups.
double MedianSetupSeconds(const std::string& workload, std::uint64_t seed) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupsPerProcess; ++i) {
    setup_s.push_back(SetupOnly(workload, seed));
  }
  return Median(setup_s);
}

int RunUntraced(const std::string& workload, std::uint64_t seed,
                double seconds) {
  std::vector<double> calibration_s = {SpawnSelf({"--calibrate"})};
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupProcesses; ++i) {
    setup_s.push_back(SpawnSelf({"--setup-only", "--workload", workload,
                                 "--seed", std::to_string(seed)}));
  }

  const double deadline = NowSeconds() + seconds;
  std::vector<PassResult> passes;
  calibration_s.push_back(SpawnSelf({"--calibrate"}));
  do {
    passes.push_back(RunUntracedPass(workload, seed));
    calibration_s.push_back(SpawnSelf({"--calibrate"}));
  } while (NowSeconds() < deadline);
  const double scale = kReferenceCalibrationS / Median(calibration_s);

  std::vector<double> run_s;
  std::vector<double> eval_us;
  std::vector<double> decide_p50;
  std::vector<double> decisions_per_s;
  std::vector<double> cycle_ms;
  std::vector<double> decide_us;
  for (const PassResult& p : passes) {
    run_s.push_back(p.run_s);
    if (p.evaluations > 0) {
      eval_us.push_back(p.solver_s * 1e6 / static_cast<double>(p.evaluations));
    }
    decide_p50.push_back(Median(p.decisions.decide_us));
    decisions_per_s.push_back(
        Ratio(static_cast<double>(p.decisions.decided), p.run_s));
    cycle_ms.insert(cycle_ms.end(), p.cycle_ms.begin(), p.cycle_ms.end());
    decide_us.insert(decide_us.end(), p.decisions.decide_us.begin(),
                     p.decisions.decide_us.end());
  }
  const PassResult& first = passes.front();
  std::cout << "workload " << workload << ", seed " << seed << ", "
            << passes.size() << " passes in " << Number(seconds)
            << " s, " << Threads(workload) << ", workload hash "
            << std::hex << first.workload_hash << std::dec << '\n';
  std::cout << "checks:\n";
  Checks checks;
  CheckPass(workload, first, checks);
  bool repeat = true;
  for (const PassResult& p : passes) {
    repeat = repeat && p.fingerprint == first.fingerprint &&
             p.workload_hash == first.workload_hash;
  }
  checks.Expect(repeat, "all " + std::to_string(passes.size()) +
                            " passes reproduce the workload hash and the "
                            "end-state placement fingerprint");

  const std::string na =
      ServiceDriven(workload) ? "" : "n/a: not service-driven";
  std::cout << "calibration: median " << Number(Median(calibration_s) * 1e3)
            << " ms of " << calibration_s.size() << ", scale "
            << Number(scale) << " to the reference "
            << Number(kReferenceCalibrationS * 1e3) << " ms\n";
  // The bounded metrics of BENCHMARK.json: intensive, so that they do not
  // follow how much work a seed's workload happens to generate. Timings
  // are calibrated to the reference host speed (calibration.h).
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s) * scale, "s",
       "calibrated; raw " + Number(Median(setup_s)) +
           " s, median over " + std::to_string(kSetupProcesses) +
           " processes of " + std::to_string(kSetupsPerProcess) +
           " set-ups each"},
      {"eval_us", Median(eval_us) * scale, "us",
       "calibrated solver time per scored candidate; raw median " +
           Number(Median(eval_us)) + " us of " +
           std::to_string(eval_us.size()) + " passes"},
      {"decide_us_p50", Median(decide_p50) * scale, "us",
       na.empty() ? "calibrated; raw median of per-pass p50 " +
                        Number(Median(decide_p50)) + " us"
                  : na},
      {"job_rp_mean", Mean(first.job_rp), "RP",
       "simulated, " + std::to_string(first.job_rp.size()) + " jobs"},
      {"goal_met_ratio", 1.0 - FailedRatio(first), "ratio",
       "simulated, 1 - failed_ratio"},
      {"placement_changes", static_cast<double>(first.placement_changes),
       "count", "simulated"},
      {"peak_rss_mb", first.peak_rss_mb, "MB", "after the first pass"},
  };
  std::cout << "end-to-end metrics (bounded in BENCHMARK.json):\n";
  PrintMetrics(metrics);

  // The rest of the end-to-end set follows the seed's amount of work
  // (exp1-paper runs 10 to 185 searching cycles depending on the arrival
  // draw), so it is printed for the record but not bounded.
  const std::size_t beyond_p90 = cycle_ms.size() / 10;
  std::cout << "end-to-end metrics (seed-dependent, not bounded):\n";
  PrintMetrics({
      {"run_s", Median(run_s), "s",
       "median of " + std::to_string(run_s.size()) + " passes"},
      {"cycle_ms_p50", Median(cycle_ms), "ms",
       std::to_string(cycle_ms.size()) + " searching cycles, all passes"},
      {"cycle_ms_p90", beyond_p90 >= 10 ? Percentile(cycle_ms, 90.0) : 0.0,
       "ms",
       beyond_p90 >= 10 ? std::to_string(beyond_p90) + " samples beyond it"
                        : "n/a: fewer than 10 samples beyond p90"},
      {"decide_us_p99", Percentile(decide_us, 99.0), "us",
       na.empty()
           ? std::to_string(decide_us.size() / 100) + " samples beyond it"
           : na},
      {"decisions_per_s", Median(decisions_per_s), "1/s", na},
      {"job_completion_ratio",
       Ratio(static_cast<double>(first.jobs_completed),
             static_cast<double>(first.jobs_submitted)),
       "ratio", "simulated"},
      {"disruptive_changes", static_cast<double>(first.disruptive_changes),
       "count", "simulated"},
      {"failed_ratio", FailedRatio(first), "ratio", "simulated"},
  });
  return Finish(checks, workload, first, metrics);
}

// --- --trace 1 -----------------------------------------------------------

int RunTraced(const std::string& workload, std::uint64_t seed,
              const std::string& out_dir) {
  const PassResult untraced = RunUntracedPass(workload, seed);

  SpanLog spans(RunId(workload, seed) + "-traced");
  mwp::obs::TraceRecorder recorder;
  PassOptions full;
  full.seed = seed;
  full.recorder = &recorder;
  full.trace_full = true;
  full.run_id = RunId(workload, seed);
  full.spans = &spans;
  PassResult traced;
  {
    const ScopedSpan span(spans, "pass.traced");
    traced = RunPass(workload, full);
  }
  ReplayFigures replay;
  {
    const ScopedSpan span(spans, "replay");
    replay = ReplayCycles(recorder.Traces(), spans);
  }
  std::vector<double> generate_ms;
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan span(spans, "workload.generate");
    generate_ms.push_back(GenerateAlibaba(seed) * 1e3);
  }

  std::cout << "workload " << workload << ", seed " << seed
            << ", traced pass, " << Threads(workload)
            << ", replay at 1 search lane, workload hash " << std::hex
            << traced.workload_hash << std::dec << '\n';
  std::cout << "checks:\n";
  Checks checks;
  CheckPass(workload, traced, checks);
  checks.Expect(traced.workload_hash == untraced.workload_hash,
                "workload hash identical between untraced and traced passes");
  checks.Expect(traced.fingerprint == untraced.fingerprint,
                "end-state placement fingerprint identical between untraced "
                "and traced passes");
  checks.Expect(replay.cycles > 0 && replay.equal_cycles == replay.cycles,
                std::to_string(replay.equal_cycles) + " of " +
                    std::to_string(replay.cycles) +
                    " recorded cycles replay with verdict \"equal\" at 1e-9");
  for (const std::string& line : replay.failures) {
    std::cout << "        " << line << '\n';
  }

  const DecisionTiming& d = traced.decisions;
  const std::string na =
      ServiceDriven(workload) ? "" : "n/a: not service-driven";
  const double lookups =
      static_cast<double>(replay.cache_hits + replay.cache_misses);
  const double distribute_us = Median(replay.distribute_us);
  const std::size_t beyond_p90 = untraced.cycle_ms.size() / 10;
  const std::vector<Metric> metrics = {
      {"workload.generate_ms", Median(generate_ms), "ms",
       "GenerateWorkload, Alibaba preset at 100 nodes"},
      {"optimizer.solve_ms_p50", Median(replay.solve_ms), "ms",
       std::to_string(replay.solve_ms.size()) + " searching cycles"},
      {"optimizer.evaluations_per_cycle",
       Ratio(static_cast<double>(replay.evaluations), replay.cycles), "count",
       std::to_string(replay.cycles) + " cycles"},
      {"optimizer.shortcut_ratio",
       Ratio(replay.shortcut_cycles, replay.cycles), "ratio",
       "of " + std::to_string(replay.cycles) + " cycles"},
      {"distributor.distribute_us", distribute_us, "us",
       std::to_string(replay.distribute_us.size()) +
           " warm calls on decided placements"},
      {"distributor.flow_probes_per_call",
       Ratio(static_cast<double>(replay.flow_probes),
             static_cast<double>(replay.distribute_calls)),
       "count", ""},
      {"distributor.share_est",
       Ratio(replay.est_distribute_s, replay.est_solve_s), "ratio",
       replay.est_solve_s > 0.0
           ? "evaluations x distribute_us / solve time"
           : "n/a: no monolithic searching cycle"},
      {"evaluator.evaluate_us", Median(replay.evaluate_us), "us",
       std::to_string(replay.evaluate_us.size()) + " warm calls"},
      {"evaluator.cache_hit_ratio",
       Ratio(static_cast<double>(replay.cache_hits), lookups), "ratio",
       "of " + Number(lookups) + " column lookups"},
      {"evaluator.cache_lookups", lookups, "count", ""},
      {"hyprpf.build_us", Median(replay.hyprpf_build_us), "us", ""},
      {"sharded.solve_ms_p50", Median(replay.sharded_solve_ms), "ms",
       workload == "alibaba-100"
           ? "recorded 25-node cells"
           : "what-if re-solve in " + std::to_string(kWhatIfCellSize) +
                 "-node cells"},
      {"sharded.cell_ms_p50", Median(replay.cell_ms), "ms",
       std::to_string(replay.cell_ms.size()) + " cell solves"},
      {"sharded.cross_cell_transfers",
       static_cast<double>(replay.cross_cell_transfers), "count", ""},
      {"controller.cycle_ms_p50", Median(untraced.cycle_ms), "ms",
       std::to_string(untraced.cycle_ms.size()) +
           " searching cycles, untraced pass"},
      {"controller.quick_dispatch_us", Median(d.quick_us), "us",
       na.empty() ? std::to_string(d.quick_us.size()) + " dispatches" : na},
      {"controller.disruptive_changes",
       static_cast<double>(traced.disruptive_changes), "count", ""},
      {"svc.publish_ns", Median(d.publish_ns), "ns", na},
      {"svc.full_cycle_ms", Median(d.full_ms), "ms",
       na.empty() ? std::to_string(d.full_ms.size()) + " full cycles" : na},
      {"svc.shed", static_cast<double>(d.shed), "count", na},
      {"sim.run_s", untraced.run_s, "s", "untraced pass"},
      {"obs.trace_overhead_ratio",
       Ratio(traced.run_s, untraced.run_s) - 1.0, "ratio",
       "traced run_s " + Number(traced.run_s) + " / untraced - 1"},
      {"replay.cycle_ms_p50", Median(replay.replay_ms), "ms", ""},
      {"replay.equal_cycles", static_cast<double>(replay.equal_cycles),
       "count", ""},
      {"host.threads", static_cast<double>(HardwareThreads()), "count",
       Threads(workload)},
  };
  std::cout << "per-layer metrics:\n";
  PrintMetrics(metrics);
  // Printed but left out of BENCHMARK.json: on a listed workload they can be
  // absent on every run (storm-25 leaves too few searching cycles for a
  // p90, exp1-paper has no faults to repair).
  std::cout << "per-layer metrics that some workloads lack:\n";
  PrintMetrics({
      {"controller.cycle_ms_p90",
       beyond_p90 >= 10 ? Percentile(untraced.cycle_ms, 90.0) : 0.0, "ms",
       beyond_p90 >= 10 ? std::to_string(beyond_p90) + " samples beyond it"
                        : "n/a: fewer than 10 samples beyond p90"},
      {"svc.repair_us", Median(d.repair_us), "us",
       d.repair_us.empty() ? "n/a: no repairs"
                           : std::to_string(d.repair_us.size()) + " repairs"},
  });
  if (workload == "exp1-paper") {
    std::cout << "  distributor.distribute_us on exp1-paper: "
              << Number(distribute_us)
              << " us; BM_LoadDistributor/25 reports 20 us and the "
                 "ROADMAP's scratch timers 142 us per call\n";
  }
  std::cout << "span time by name (s):\n";
  for (const auto& [name, t] : spans.ByName()) {
    std::cout << "  " << name << ": count " << t.count << ", total "
              << Number(t.total_s) << ", self " << Number(t.self_s) << '\n';
  }
  const std::string path = out_dir + "/spans-" + workload + ".jsonl";
  checks.Expect(spans.WriteJsonl(path),
                "wrote " + std::to_string(spans.spans().size()) +
                    " spans to " + path);
  return Finish(checks, workload, traced, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const mwp::CommandLine cli(argc, argv);
    if (cli.GetBool("calibrate", false)) {
      std::printf("%.17g\n", perfbench::CalibrationSeconds());
      return 0;
    }
    const std::string workload = cli.GetString("workload", "");
    const std::uint64_t seed = cli.GetSeed(42);
    const double seconds = cli.GetDouble("seconds", 10.0);
    const std::int64_t trace = cli.GetInt("trace", 0);
    const std::string out_dir = cli.GetString("out", ".");
    if (!perfbench::KnownWorkload(workload) || !(seconds > 0.0) ||
        (trace != 0 && trace != 1)) {
      std::cerr << "usage: perfbench --workload exp1-paper|storm-25|"
                   "alibaba-100 --seed N --seconds S --trace 0|1 [--out DIR]\n";
      return 2;
    }
    if (cli.GetBool("setup-only", false)) {
      std::printf("%.17g\n", perfbench::MedianSetupSeconds(workload, seed));
      return 0;
    }
    return trace == 1 ? perfbench::RunTraced(workload, seed, out_dir)
                      : perfbench::RunUntraced(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
