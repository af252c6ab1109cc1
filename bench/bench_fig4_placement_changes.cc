// Figure 4 (§5.2): number of jobs migrated, suspended, and resumed per
// scheduler across the inter-arrival sweep. FCFS is non-preemptive (always
// zero); EDF churns heavily under load; APC achieves a comparable on-time
// rate with many fewer changes.
//
//   ./bench_fig4_placement_changes [--jobs 800] [--interarrivals ...]
//                                  [--trace-out exp2.jsonl] [--trace-full]
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
  const auto interarrivals = cli.GetPositiveList("interarrivals", "400,350,300,250,200,150,100,50");
  const std::uint64_t seed = cli.GetSeed(7);
  const bool csv = cli.GetBool("csv", false);
  // One recorder spans the whole sweep: the APC runs' cycle traces are
  // concatenated in sweep order (each run restarts its cycle counter and is
  // tagged with a per-run id like "ia200"; the sweep header carries none).
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  obs::TraceRecorder recorder;

  std::cout << "Experiment Two / Figure 4: disruptive placement changes "
               "(suspend + resume + migrate)\n\n";

  Table t({"inter-arrival [s]", "FCFS", "EDF", "APC", "EDF detail (s/r/m)",
           "APC detail (s/r/m)"});
  for (double ia : interarrivals) {
    std::vector<std::string> row = {FormatNumber(ia, 0)};
    std::string edf_detail, apc_detail;
    for (auto kind :
         {SchedulerKind::kFcfs, SchedulerKind::kEdf, SchedulerKind::kApc}) {
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
      row.push_back(FormatNumber(r.disruptive_changes, 0));
      const std::string detail = FormatNumber(r.changes.suspends, 0) + "/" +
                                 FormatNumber(r.changes.resumes, 0) + "/" +
                                 FormatNumber(r.changes.migrations, 0);
      if (kind == SchedulerKind::kEdf) edf_detail = detail;
      if (kind == SchedulerKind::kApc) apc_detail = detail;
    }
    row.push_back(edf_detail);
    row.push_back(apc_detail);
    t.AddRow(row);
    std::cerr << "  done inter-arrival " << ia << " s\n";
  }
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment2", seed,
                                              Experiment2Config{}.control_cycle),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  std::cout << (csv ? t.ToCsv() : t.ToText());
  std::cout << "\nExpected shape (paper): FCFS = 0 everywhere; EDF grows "
               "steeply once the\ninter-arrival time drops to 150 s or less; "
               "APC makes many fewer changes than EDF.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Run); }
