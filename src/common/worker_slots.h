// Per-worker counter slots for the joins' MapReduce jobs.
//
// A job's map and reduce functions run on the workers of the job's
// ThreadPool. WorkerSlots keeps one slot per worker, each in a cache line
// of its own, and hands a function the slot of the worker it runs on
// (ThreadPool::CurrentWorkerIndex). The function adds to it with plain
// stores, so no two workers write one cache line and no count pays an
// atomic. Total() sums the slots once the job is done, so the totals are
// exact at every worker count.

#ifndef TSJ_COMMON_WORKER_SLOTS_H_
#define TSJ_COMMON_WORKER_SLOTS_H_

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/thread_pool.h"

namespace tsj {

/// One `Slot` per pool worker. `Slot` is default-constructible and sums
/// with `operator+=`.
template <typename Slot>
class WorkerSlots {
 public:
  /// `num_workers` is the worker count of the pool the slots serve
  /// (MapReduceOptions::effective_workers()).
  explicit WorkerSlots(size_t num_workers) : slots_(num_workers) {}

  /// The calling worker's slot. A caller outside the pool is a bug: it
  /// fails here, and never shares another worker's slot.
  Slot& Local() {
    const size_t worker = ThreadPool::CurrentWorkerIndex();
    if (worker >= slots_.size()) {
      std::fprintf(stderr,
                   "worker slot %zu requested, but the job has %zu "
                   "workers\n",
                   worker, slots_.size());
      std::abort();
    }
    return slots_[worker].slot;
  }

  /// The sum of every worker's slot. Call it once no worker adds anymore.
  Slot Total() const {
    Slot total;
    for (const Padded& padded : slots_) total += padded.slot;
    return total;
  }

 private:
  struct alignas(64) Padded {
    Slot slot;
  };
  std::vector<Padded> slots_;
};

}  // namespace tsj

#endif  // TSJ_COMMON_WORKER_SLOTS_H_
