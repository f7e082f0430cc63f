// Copyright (c) the semis authors.
// A minimal fixed-size thread pool for the parallel executors (swap rounds
// and min-id rounds). Its primitive is a parallel-for over an index range:
// workers pull indices from a shared atomic counter, so work items of
// uneven cost (adjacency shards) balance automatically. With one worker
// the items are processed strictly in ascending order, which makes the
// single-threaded execution the sequential reference path of every
// algorithm built on top.
#ifndef SEMIS_UTIL_THREAD_POOL_H_
#define SEMIS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace semis {

/// The one thread-count rule: `requested`, or
/// std::thread::hardware_concurrency() when it is 0, and at least 1.
inline uint32_t ResolveThreadCount(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Fixed pool of worker threads executing parallel-for jobs.
class ThreadPool {
 public:
  /// Spawns ResolveThreadCount(num_threads) workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Runs `fn(item, worker)` for every item in [0, num_items), distributing
  /// items over the workers, and returns when all items are done. `worker`
  /// is a stable index in [0, size()) identifying the executing thread, so
  /// callers can keep per-worker scratch state without synchronization.
  /// Not reentrant: one job at a time.
  void ParallelFor(size_t num_items,
                   const std::function<void(size_t item, size_t worker)>& fn)
      EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t worker_index) EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar job_cv_;   // workers wait for a new job epoch
  CondVar done_cv_;  // ParallelFor waits here for the job to finish
  // The running job's fn, owned by the blocked ParallelFor caller. Set
  // under mu_; workers copy the pointer under the lock and invoke it
  // outside. Safe because ParallelFor cannot return (or clear it) until
  // every worker has passed the workers_done_ barrier (see WorkerLoop).
  const std::function<void(size_t, size_t)>* job_fn_ GUARDED_BY(mu_) =
      nullptr;
  bool job_active_ GUARDED_BY(mu_) = false;
  size_t job_items_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_item_{0};
  size_t workers_done_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace semis

#endif  // SEMIS_UTIL_THREAD_POOL_H_
