// Host-speed calibration for the end-to-end timings.
//
// A shared host runs slower or faster for minutes at a time: same-seed
// runs of storm-25 drifted from 27 to 47 us in decide_us_p50 within a few
// minutes. A fixed calibration workload slows down with the host, so a
// timing divided by the calibration time varies much less from run to run
// (in that test the spread of eval_us fell from 0.25 to 0.09, that of
// decide_us_p50 from 0.31 to 0.15). The workload runs in a fresh process
// (`perfbench --calibrate`), so it neither depends on nor disturbs the
// heap and resident set of the process being measured.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Calibration time, in seconds, on the host the bounds in BENCHMARK.json
/// were set on (4 hardware threads). A calibrated timing is the raw timing
/// x kReferenceCalibrationS / the run's median calibration time.
inline constexpr double kReferenceCalibrationS = 0.045;

/// Runs the calibration workload three times and returns the median host
/// seconds: ordered-map inserts and lookups (allocation and pointer
/// chasing) and dense row sweeps, the kinds of work the controller does.
double CalibrationSeconds();

/// Runs this perfbench binary with `args` in a fresh process, waits for it
/// and returns the number it printed. Throws when the child fails. Used
/// for `--calibrate` and for `--setup-only`: a fresh process measures from
/// a fresh heap, whatever the measuring process has done before.
double SpawnSelf(const std::vector<std::string>& args);

}  // namespace perfbench
