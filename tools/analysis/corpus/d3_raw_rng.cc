// AUD-D3 corpus: raw randomness outside mwp::Rng.
#include <cstdlib>
#include <ctime>
#include <random>

namespace corpus {

// Positive ×4: hardware entropy, a raw standard engine, the C PRNG, and
// calendar-time seeding.
int Seed() {
  std::random_device rd;
  std::mt19937_64 engine(rd());
  return static_cast<int>(engine() % 5) + rand() % 7;
}
long Clock() { return time(nullptr); }

// Negative: the one seeded engine the project's Rng wraps, justified.
struct Rng {
  // audit: rng-engine-ok(seeded wrapper; every draw flows through here)
  std::mt19937 engine{42};
};

}  // namespace corpus
