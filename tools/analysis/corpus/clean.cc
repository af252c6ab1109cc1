// Clean corpus file: the project's own idioms produce no finding, and a
// banned name inside a comment or a string is not code.
#include "common/check.h"
#include "common/log.h"
#include "common/units.h"

namespace corpus {

void Cycle(mwp::Seconds now) {
  MWP_CHECK(now >= 0.0);
  MWP_LOG_DEBUG << "cycle at " << now << " (no std::random_device here)";
  // std::random_device in a comment is fine
}

}  // namespace corpus
