// Figure 6 (§5.3): relative performance over time for the transactional
// (TX) and long-running (LR) workloads under three configurations —
// dynamic APC sharing, static 9 TX / 16 LR nodes, static 6 TX / 19 LR.
//
//   ./bench_fig6_heterogeneous_rp [--duration 65000] [--bucket 5000]
//                                 [--trace-out exp3.jsonl] [--trace-full]
//                                 [--run-id exp3-s11]
#include <cmath>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment3.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace {

int Run(const mwp::CommandLine& cli) {
  using namespace mwp;
  Experiment3Config base;
  base.duration = cli.GetPositive("duration", 65'000.0);
  base.burst_interarrival = cli.GetPositive("burst-interarrival", 180.0);
  base.ease_time = cli.GetDouble("ease-time", 42'000.0);
  base.seed = cli.GetSeed(11);
  const Seconds bucket = cli.GetPositive("bucket", 5'000.0);
  const bool csv = cli.GetBool("csv", false);
  // Per-cycle traces come from the dynamic-APC run (the static partitions
  // run no control loop).
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  const std::string run_id =
      cli.GetString("run-id", "exp3-s" + std::to_string(base.seed));
  obs::TraceRecorder recorder;

  std::cout << "Experiment Three / Figure 6: relative performance over time\n"
               "(TX = actual RP of the transactional app; LR = average "
               "hypothetical RP of jobs)\n\n";

  std::vector<Experiment3Result> results;
  std::vector<Experiment3Mode> modes = {Experiment3Mode::kDynamicApc,
                                        Experiment3Mode::kStatic9Tx16Lr,
                                        Experiment3Mode::kStatic6Tx19Lr};
  for (auto mode : modes) {
    Experiment3Config cfg = base;
    cfg.mode = mode;
    if (!trace_out.empty() && mode == Experiment3Mode::kDynamicApc) {
      cfg.trace = &recorder;
      cfg.trace_run_id = run_id;
      cfg.trace_full = trace_full;
    }
    results.push_back(RunExperiment3(cfg));
    std::cerr << "  done " << ToString(mode) << " (jobs submitted "
              << results.back().jobs_submitted << ", completed "
              << results.back().jobs_completed << ")\n";
  }

  Table t({"time [s]", "APC TX", "APC LR", "9/16 TX", "9/16 LR", "6/19 TX",
           "6/19 LR"});
  for (Seconds time = bucket / 2.0; time < base.duration; time += bucket) {
    std::vector<std::string> row = {FormatNumber(time, 0)};
    for (const auto& r : results) {
      const double tx = r.tx_rp.MeanInWindow(time - bucket / 2.0,
                                             time + bucket / 2.0);
      const double lr = r.batch_rp.MeanInWindow(time - bucket / 2.0,
                                                time + bucket / 2.0);
      row.push_back(std::isnan(tx) ? "-" : FormatNumber(tx, 3));
      row.push_back(std::isnan(lr) ? "-" : FormatNumber(lr, 3));
    }
    t.AddRow(row);
  }
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment3", base.seed,
                                              base.control_cycle, run_id),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  std::cout << (csv ? t.ToCsv() : t.ToText());
  std::cout << "\nExpected shape (paper): APC starts with TX at its 0.66 "
               "ceiling, then equalizes\nTX and LR as jobs queue, and gives "
               "CPU back when submissions ease. The 9/16\nsplit pins TX at "
               "0.66 while LR languishes; the 6/19 split caps TX below its\n"
               "ceiling without clearly helping LR.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Run); }
