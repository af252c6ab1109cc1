// AUD-D3 corpus: a direct wall-clock read.
#include <chrono>

namespace corpus {

// Positive: host time in a decision.
double Now() {
  auto t = std::chrono::steady_clock::now();
  return static_cast<double>(t.time_since_epoch().count());
}

}  // namespace corpus
