// replay_apc: re-run recorded APC control cycles and diff the decisions.
//
// Usage:
//   replay_apc --trace TRACE.jsonl [--diff] [--tolerance 1e-9]
//              [--threads N] [--report FILE] [--verbose] [--quiet]
//              [--override-tie-tolerance EPS] [--override-sweeps N]
//              [--override-cell-size N] [--min-cycles N]
//   replay_apc --validate --trace TRACE.jsonl [--min-cycles N]
//
// --validate checks the trace against the schema (replay/trace_reader.h:
// per-record key sets and types, then ValidateTrace's cross-record checks,
// including at least --min-cycles cycles, default 1) without replaying. It
// prints "OK (N cycle records, schema vV)" and exits 0, or prints a
// line-numbered error and exits 1. Replay mode runs the same checks first.
//
// Reads a CycleTrace JSONL export (schema v2 recorded with --trace-full),
// reconstructs every cycle's optimizer input, re-runs the placement solver
// and compares the replayed decisions against the recorded ones. With
// --diff (the default behaviour; the flag exists for symmetry with the
// issue's CLI contract), the per-cycle diff report is printed and the exit
// status reflects the comparison:
//
//   0  every replayed cycle agrees (no placement diff, drift <= tolerance)
//   1  regression: placement delta, RP/allocation drift above tolerance,
//      a malformed trace, or a trace with no replayable cycles
//   2  usage error
//
// --report writes the same diff report to a file (for CI artifacts).
//
// The --override-* flags re-run the recorded cycles under a different solver
// configuration (tie tolerance, sweep budget, sharding cell size) for
// offline tuning on production traces. Overridden replays are what-if
// experiments: divergence from the recorded decisions is reported per cycle
// but never fails the exit status.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "replay/replay.h"
#include "replay/trace_reader.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --trace TRACE.jsonl [--diff] [--tolerance EPS]"
               " [--threads N] [--report FILE] [--verbose] [--quiet]"
               " [--override-tie-tolerance EPS] [--override-sweeps N]"
               " [--override-cell-size N] [--min-cycles N]\n"
            << "       " << argv0
            << " --validate --trace TRACE.jsonl [--min-cycles N]\n";
  return 2;
}

// Strict flag values: the whole text must parse, and none of this tool's
// numeric flags takes a negative value (--override-sweeps needs one sweep).
// Throws mwp::FlagError.
double NonNegativeDouble(const char* flag, const char* text) {
  const double value = mwp::ParseFlagDouble(flag, text);
  if (value < 0.0) {
    throw mwp::FlagError(std::string("flag --") + flag +
                         " must be non-negative, got '" + text + "'");
  }
  return value;
}

int IntAtLeast(const char* flag, const char* text, int min) {
  const std::int64_t value = mwp::ParseFlagInt(flag, text);
  if (value < min || value > std::numeric_limits<int>::max()) {
    throw mwp::FlagError(std::string("flag --") + flag + " must be an int >= " +
                         std::to_string(min) + ", got '" + text + "'");
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  mwp::replay::ReplayOptions options;
  bool verbose = false;
  bool quiet = false;
  bool validate_only = false;
  int min_cycles = 1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::cerr << flag << " requires a value\n";
          return nullptr;
        }
        return argv[++i];
      };
      if (arg == "--trace") {
        const char* v = next("--trace");
        if (v == nullptr) return Usage(argv[0]);
        trace_path = v;
      } else if (arg == "--report") {
        const char* v = next("--report");
        if (v == nullptr) return Usage(argv[0]);
        report_path = v;
      } else if (arg == "--tolerance") {
        const char* v = next("--tolerance");
        if (v == nullptr) return Usage(argv[0]);
        options.rp_tolerance = NonNegativeDouble("tolerance", v);
      } else if (arg == "--threads") {
        const char* v = next("--threads");
        if (v == nullptr) return Usage(argv[0]);
        options.search_threads = IntAtLeast("threads", v, 0);
      } else if (arg == "--override-tie-tolerance") {
        const char* v = next("--override-tie-tolerance");
        if (v == nullptr) return Usage(argv[0]);
        options.override_tie_tolerance =
            NonNegativeDouble("override-tie-tolerance", v);
      } else if (arg == "--override-sweeps") {
        const char* v = next("--override-sweeps");
        if (v == nullptr) return Usage(argv[0]);
        options.override_sweeps = IntAtLeast("override-sweeps", v, 1);
      } else if (arg == "--override-cell-size") {
        const char* v = next("--override-cell-size");
        if (v == nullptr) return Usage(argv[0]);
        options.override_cell_size = IntAtLeast("override-cell-size", v, 0);
      } else if (arg == "--min-cycles") {
        const char* v = next("--min-cycles");
        if (v == nullptr) return Usage(argv[0]);
        min_cycles = IntAtLeast("min-cycles", v, 0);
      } else if (arg == "--validate") {
        validate_only = true;
      } else if (arg == "--diff") {
        // Diffing is the tool's only mode; accepted for CLI-contract clarity.
      } else if (arg == "--verbose") {
        verbose = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        Usage(argv[0]);
        return 0;
      } else {
        std::cerr << "unknown argument '" << arg << "'\n";
        return Usage(argv[0]);
      }
    }
  } catch (const mwp::FlagError& e) {
    std::cerr << e.what() << '\n';
    return Usage(argv[0]);
  }
  if (trace_path.empty()) {
    std::cerr << "--trace is required\n";
    return Usage(argv[0]);
  }

  std::string error;
  const auto trace = mwp::replay::ParseTraceFile(trace_path, &error);
  if (trace.has_value()) error = mwp::replay::ValidateTrace(*trace, min_cycles);
  if (!trace.has_value() || !error.empty()) {
    std::cerr << trace_path << ": " << error << "\n";
    return 1;
  }
  if (validate_only) {
    std::cout << trace_path << ": OK (" << trace->cycles.size()
              << " cycle records, schema v" << trace->schema_version << ")\n";
    return 0;
  }

  const mwp::replay::ReplayReport report =
      mwp::replay::ReplayTrace(*trace, options);

  std::ostringstream out;
  mwp::replay::WriteReport(out, report, options, verbose);
  if (!quiet) std::cout << out.str();
  if (!report_path.empty()) {
    std::ofstream file(report_path);
    if (!file) {
      std::cerr << "cannot open report file '" << report_path << "'\n";
      return 1;
    }
    file << out.str();
  }

  if (report.replayed_cycles == 0) {
    std::cerr << trace_path
              << ": no replayable cycles (record with --trace-full)\n";
    return 1;
  }
  return report.ok() ? 0 : 1;
}
