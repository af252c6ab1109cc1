// MWP003 corpus: raw assert() instead of MWP_CHECK / MWP_DCHECK.
#include <cassert>

namespace corpus {

void Check(int n) {
  assert(n > 0);                    // positive
  static_assert(sizeof(int) == 4);  // clean: compile-time only
}

}  // namespace corpus
