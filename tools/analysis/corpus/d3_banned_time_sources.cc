// AUD-D3 corpus: nondeterministic sources in decision-path code.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

#include "audit_stubs.h"

namespace corpus {

// Positive: naming a host clock at all, here in an alias declaration.
using Clock = std::chrono::steady_clock;

// Positive ×2: a wall-clock read laundered through a type alias (the
// pattern a regex linter cannot follow), and a direct one.
double DecideWithWallClock() {
  const auto t0 = Clock::now();
  const auto t1 = std::chrono::system_clock::now();
  return std::chrono::duration<double>(t1.time_since_epoch() -
                                       t0.time_since_epoch())
      .count();
}

// Positive ×3: hardware entropy, C PRNG, calendar time.
int DecideWithEntropy() {
  std::random_device rd;
  int draw = rand() % 7;
  long stamp = static_cast<long>(time(nullptr));
  return static_cast<int>(rd()) + draw + static_cast<int>(stamp % 3);
}

// Negative: an observability stopwatch, justified.
double ObservedSolveSeconds() {
  // audit: wall-clock-ok(observability stopwatch; feeds metrics only)
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

}  // namespace corpus
