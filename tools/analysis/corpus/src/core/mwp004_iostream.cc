// MWP004 corpus: iostream in a hot-path module (the path puts this file
// under src/core/). Positive ×2: the include and the stream.
#include <iostream>

namespace corpus {

void Report(int n) { std::cout << n << "\n"; }

}  // namespace corpus
