// Figure 5 (§5.2): distribution of the distance to the completion-time goal
// at job completion, split by relative goal factor (1.3 / 2.5 / 4.0), for
// two mean inter-arrival times (the paper shows 200 s and 50 s).
//
//   ./bench_fig5_distance_distribution [--jobs 800] [--interarrivals 200,50]
//                                      [--trace-out exp2.jsonl] [--trace-full]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment2.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace {

int Run(const mwp::CommandLine& cli) {
  using namespace mwp;
  const int jobs = cli.GetIntAtLeast("jobs", 800, 1);
  const auto interarrivals = cli.GetPositiveList("interarrivals", "200,50");
  const std::uint64_t seed = cli.GetSeed(7);
  const bool csv = cli.GetBool("csv", false);
  // One recorder spans the whole sweep: the APC runs' cycle traces are
  // concatenated in sweep order (each run restarts its cycle counter and is
  // tagged with a per-run id like "ia200"; the sweep header carries none).
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  obs::TraceRecorder recorder;

  std::cout << "Experiment Two / Figure 5: distance to the goal at "
               "completion time [s]\n(positive = early; grouped by relative "
               "goal factor)\n\n";

  for (double ia : interarrivals) {
    std::cout << "--- mean inter-arrival " << FormatNumber(ia, 0) << " s ---\n";
    Table t({"scheduler", "factor", "n", "min", "p10", "median", "p90", "max",
             "spread (p90-p10)"});
    for (auto kind :
         {SchedulerKind::kApc, SchedulerKind::kEdf, SchedulerKind::kFcfs}) {
      Experiment2Config cfg;
      cfg.completed_jobs_target = jobs;
      cfg.mean_interarrival = ia;
      cfg.scheduler = kind;
      cfg.seed = seed;
      if (!trace_out.empty() && kind == SchedulerKind::kApc) {
        cfg.trace = &recorder;
        cfg.trace_run_id = "ia" + FormatNumber(ia, 0);
        cfg.trace_full = trace_full;
      }
      const Experiment2Result r = RunExperiment2(cfg);
      for (double factor : {1.3, 2.5, 4.0}) {
        const auto group = FilterByGoalFactor(r.outcomes, factor);
        const Sample d = DistanceSample(group);
        if (d.empty()) continue;
        t.AddRow({ToString(kind), FormatNumber(factor, 1),
                  FormatNumber(static_cast<double>(d.count()), 0),
                  FormatNumber(d.min(), 0), FormatNumber(d.Percentile(10.0), 0),
                  FormatNumber(d.median(), 0),
                  FormatNumber(d.Percentile(90.0), 0), FormatNumber(d.max(), 0),
                  FormatNumber(d.Percentile(90.0) - d.Percentile(10.0), 0)});
      }
      std::cerr << "  done " << ToString(kind) << " @ " << ia << " s\n";
    }
    std::cout << (csv ? t.ToCsv() : t.ToText()) << '\n';
  }
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment2", seed,
                                              Experiment2Config{}.control_cycle),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  std::cout << "Expected shape (paper): at 200 s all three algorithms form "
               "tight clusters per\nfactor; at 50 s APC's distances cluster "
               "more tightly than EDF's (smallest spread\nfor factor 1.3), "
               "showing APC equalizes satisfaction across jobs.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Run); }
