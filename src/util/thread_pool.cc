#include "util/thread_pool.h"

#include <cstdio>
#include <cstdlib>

namespace semis {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = ResolveThreadCount(static_cast<uint32_t>(num_threads));
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelFor(
    size_t num_items, const std::function<void(size_t, size_t)>& fn) {
  if (num_items == 0) return;
  MutexLock lock(&mu_);
  // One job at a time: an overlapping call (from another thread, or from
  // inside `fn`) would reset the completion barrier mid-job and re-issue
  // in-flight items under the new fn. Abort unconditionally (not assert)
  // so the contract holds under NDEBUG too.
  if (job_active_) {
    std::fprintf(stderr,
                 "ThreadPool::ParallelFor called while a job is in flight\n");
    std::abort();
  }
  job_fn_ = &fn;
  job_items_ = num_items;
  next_item_.store(0, std::memory_order_relaxed);
  workers_done_ = 0;
  job_active_ = true;
  epoch_++;
  job_cv_.NotifyAll();
  while (workers_done_ != threads_.size()) done_cv_.Wait(&mu_);
  job_active_ = false;
  job_fn_ = nullptr;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  uint64_t seen_epoch = 0;
  while (true) {
    size_t items = 0;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    {
      MutexLock lock(&mu_);
      while (!stop_ && epoch_ == seen_epoch) job_cv_.Wait(&mu_);
      if (stop_) return;
      seen_epoch = epoch_;
      items = job_items_;
      // The pointer crosses the lock boundary: the function it names
      // outlives the job, since ParallelFor cannot return before every
      // worker has passed the workers_done_ barrier below, so invoking
      // through `fn` unlocked is safe.
      fn = job_fn_;
    }
    while (true) {
      const size_t item = next_item_.fetch_add(1, std::memory_order_relaxed);
      if (item >= items) break;
      (*fn)(item, worker_index);
    }
    {
      MutexLock lock(&mu_);
      workers_done_++;
      if (workers_done_ == threads_.size()) done_cv_.NotifyAll();
    }
  }
}

}  // namespace semis
