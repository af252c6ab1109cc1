// Minimal stand-ins for the project's concurrency types. Mirrors
// src/common/thread_annotations.h and src/core/thread_pool.h just enough
// for the audited patterns to be realistic.
#ifndef TOOLS_ANALYSIS_CORPUS_AUDIT_STUBS_H_
#define TOOLS_ANALYSIS_CORPUS_AUDIT_STUBS_H_

#include <cstddef>

#if defined(__clang__)
#define MWP_ATTR(x) __attribute__((x))
#else
#define MWP_ATTR(x)
#endif
#define MWP_GUARDED_BY(x) MWP_ATTR(guarded_by(x))
#define MWP_PT_GUARDED_BY(x) MWP_ATTR(pt_guarded_by(x))
#define MWP_ACQUIRED_BEFORE(...) MWP_ATTR(acquired_before(__VA_ARGS__))

class MWP_ATTR(capability("mutex")) Mutex {
 public:
  void Lock() MWP_ATTR(acquire_capability());
  void Unlock() MWP_ATTR(release_capability());
};

class MWP_ATTR(scoped_lockable) MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MWP_ATTR(acquire_capability(mu));
  ~MutexLock() MWP_ATTR(release_capability());
};

class ThreadPool {
 public:
  template <typename F>
  void ParallelFor(std::size_t n, F&& fn);
  template <typename F>
  bool TrySubmit(F&& fn);
};

#endif  // TOOLS_ANALYSIS_CORPUS_AUDIT_STUBS_H_
