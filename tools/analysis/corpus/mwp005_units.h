// MWP005 corpus: time-like quantities declared as raw double in a header.
#ifndef TOOLS_ANALYSIS_CORPUS_MWP005_UNITS_H_
#define TOOLS_ANALYSIS_CORPUS_MWP005_UNITS_H_

namespace corpus {

struct Stats {
  double mean_response_time = 0.0;  // positive
  double speed_factor = 1.0;        // clean: dimensionless
};
void Wait(double timeout);          // positive

}  // namespace corpus

#endif  // TOOLS_ANALYSIS_CORPUS_MWP005_UNITS_H_
