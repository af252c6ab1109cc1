// Memoization and scratch buffers for the evaluation hot path.
//
// The optimizer scores hundreds to thousands of candidate placements per
// control cycle, and every score rebuilds the hypothetical-RPF W/V matrix
// (grid rows × jobs, with a required-speed inversion per cell). A job's
// column of that matrix depends only on its (work_done, start_delay) state
// at cycle end — identical across most candidates, because a candidate
// differs from the incumbent by one instance and most jobs' allocations are
// pinned at their stage speed caps. HypColumnCache memoizes columns under
// that key; cached columns are the exact doubles a fresh computation would
// produce (both paths run HypotheticalRpf::ComputeColumn), so evaluations
// through the cache are bit-for-bit identical to evaluations without it.
//
// EvalScratch carries the per-call buffers of PlacementEvaluator::Evaluate
// so repeated evaluations allocate nothing. Use one scratch per thread; the
// column cache itself is thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/hypothetical_rpf.h"
#include "core/load_distributor.h"

namespace mwp {

/// Thread-safe memo of hypothetical-RPF columns keyed per job by the bit
/// patterns of (work_done, start_delay). Column pointers remain valid for
/// the cache's lifetime.
class HypColumnCache {
 public:
  /// `t_eval` and `grid` are fixed for the cache's lifetime (they are part
  /// of every column's value); `num_jobs` bounds the job indices passed to
  /// Get.
  HypColumnCache(Seconds t_eval, std::vector<double> grid, int num_jobs);

  /// The column for `job` in state `s`. Computes and stores it on first
  /// sight of the (work_done, start_delay) pair. `s.profile` and `s.goal`
  /// must be the job's snapshot values (they are not part of the key).
  const HypotheticalRpf::Column* Get(int job, const HypotheticalJobState& s);

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Key {
    std::uint64_t work_bits;
    std::uint64_t delay_bits;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Splitmix-style combine of the two bit patterns.
      std::uint64_t h = k.work_bits + 0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h ^= k.delay_bits + 0x94d049bb133111ebULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(h ^ (h >> 31));
    }
  };

  /// Fixed at construction; immutability is what lets Get() read them
  /// without holding mu_.
  const Seconds t_eval_;
  const std::vector<double> grid_;
  Mutex mu_;
  /// One map per snapshot job; unique_ptr storage keeps column addresses
  /// stable across rehashes. The vector's shape is fixed at construction;
  /// the maps inside mutate under mu_. Published column pointers outlive
  /// the lock by design (their storage is never erased).
  std::vector<
      std::unordered_map<Key, std::unique_ptr<HypotheticalRpf::Column>, KeyHash>>
      per_job_ MWP_GUARDED_BY(mu_);
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

/// Reusable per-thread buffers for PlacementEvaluator::Evaluate.
struct EvalScratch {
  DistributorScratch distributor;
  /// The sparse form of a placement handed to the matrix overload.
  SparsePlacement placement;
  std::vector<HypotheticalJobState> hyp_jobs;
  std::vector<int> hyp_index;  // snapshot job index per hyp entry
  std::vector<const HypotheticalRpf::Column*> columns;
  std::vector<MHz> row_sums;
  std::vector<HypotheticalRpf::JobOutcome> outcomes;

  /// Last column fetched per job: a job's state usually repeats across
  /// consecutive candidates, so this bypasses the shared cache's mutex for
  /// the common case. Pointers stay valid for the cache's lifetime.
  struct ColumnMemo {
    std::uint64_t work_bits = 0;
    std::uint64_t delay_bits = 0;
    const HypotheticalRpf::Column* col = nullptr;
  };
  std::vector<ColumnMemo> last_columns;
};

}  // namespace mwp
