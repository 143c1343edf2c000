#ifndef KOSR_UTIL_PARALLEL_H_
#define KOSR_UTIL_PARALLEL_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/sync.h"

namespace kosr {

/// Maps the user-facing thread knob to an actual count: 0 means "use the
/// hardware". Requests are clamped to max(64, 4 x hardware) — past that
/// point extra threads only cost memory (the hub-label build allocates O(n)
/// scratch per thread, so an unclamped `--threads 100000` would try to
/// allocate terabytes and spawn until std::thread throws, instead of
/// building). Never returns 0.
inline uint32_t ResolveThreadCount(uint32_t requested) {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (requested == 0) return hw;
  return std::min(requested, std::max<uint32_t>(64, 4 * hw));
}

/// Persistent worker pool for repeated parallel-for invocations. Spawns
/// `ResolveThreadCount(num_threads) - 1` workers once; every ParallelFor
/// call then reuses them (dynamic scheduling off a shared atomic counter,
/// caller participating as thread 0) instead of paying thread creation and
/// teardown per call — the rank-batched hub-label build issues two calls per
/// batch, hundreds per index, which is exactly the case per-call spawning
/// was slowest for. Semantics match ParallelForEachIndexWithThread: the
/// first exception is rethrown on the caller after the call's iterations
/// drain, and `thread` is a dense index in [0, num_threads()).
///
/// ParallelFor calls must not overlap (one job at a time); issue them from
/// a single orchestrating thread.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads)
      : num_threads_(ResolveThreadCount(num_threads)) {
    workers_.reserve(num_threads_ - 1);
    for (uint32_t t = 1; t < num_threads_; ++t) {
      workers_.emplace_back([this, t] { WorkerMain(t); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Runs fn(i, thread) for every i in [0, n); returns when all iterations
  /// finished. The caller drains indices alongside the workers.
  ///
  /// Every call is a full-pool rendezvous: all workers wake and check in
  /// even when n is smaller than the pool, so a tiny-n call pays one
  /// pool-wide wakeup round trip. That is the accepted trade-off for a
  /// protocol with no stale-claimer races (a worker can never touch a
  /// later call's counters); under the hub-label build's exponential
  /// batch schedule only O(log batch_cap) calls are tiny, and those are
  /// the top-hub searches whose work dwarfs the wakeup latency anyway.
  template <typename Fn>
  void ParallelFor(uint64_t n, Fn&& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (uint64_t i = 0; i < n; ++i) fn(i, uint32_t{0});
      return;
    }
    std::function<void(uint64_t, uint32_t)> job(std::forward<Fn>(fn));
    {
      MutexLock lock(mutex_);
      job_ = &job;
      limit_ = n;
      next_.store(0, std::memory_order_relaxed);
      running_ = static_cast<uint32_t>(workers_.size());
      ++generation_;
    }
    work_cv_.NotifyAll();
    Drain(0);
    std::exception_ptr error;
    {
      MutexLock lock(mutex_);
      while (running_ != 0) done_cv_.Wait(mutex_);
      job_ = nullptr;
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void Drain(uint32_t thread) KOSR_EXCLUDES(mutex_) {
    // Snapshot the current call's job under the lock once per drain; the
    // hot claim loop then runs lock-free off the atomic counter. The
    // snapshot stays valid for the whole drain: ParallelFor clears job_
    // only after running_ hits zero, which this thread delays until after
    // its drain returns.
    const std::function<void(uint64_t, uint32_t)>* job = nullptr;
    uint64_t limit = 0;
    {
      MutexLock lock(mutex_);
      job = job_;
      limit = limit_;
    }
    for (;;) {
      uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit) return;
      try {
        (*job)(i, thread);
      } catch (...) {
        // First error wins; remaining iterations still run (same contract
        // as ParallelForEachIndexWithThread).
        MutexLock lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  void WorkerMain(uint32_t thread) KOSR_EXCLUDES(mutex_) {
    uint64_t seen = 0;
    for (;;) {
      {
        MutexLock lock(mutex_);
        while (!shutdown_ && generation_ == seen) work_cv_.Wait(mutex_);
        if (shutdown_) return;
        seen = generation_;
      }
      Drain(thread);
      MutexLock lock(mutex_);
      if (--running_ == 0) done_cv_.NotifyOne();
    }
  }

  const uint32_t num_threads_;
  std::vector<std::thread> workers_;  // written only by ctor/dtor's thread
  /// One mutex guards the whole job-handoff protocol; the only unguarded
  /// shared state is the atomic claim counter next_.
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(uint64_t, uint32_t)>* job_
      KOSR_GUARDED_BY(mutex_) = nullptr;
  std::atomic<uint64_t> next_{0};
  uint64_t limit_ KOSR_GUARDED_BY(mutex_) = 0;
  uint32_t running_ KOSR_GUARDED_BY(mutex_) = 0;
  uint64_t generation_ KOSR_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ KOSR_GUARDED_BY(mutex_);
  bool shutdown_ KOSR_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i, thread) for every i in [0, n) on up to `num_threads` threads,
/// pulling indices from a shared atomic counter (dynamic scheduling —
/// iterations may have very uneven cost, e.g. one hub-label search per hub).
/// `thread` is the worker's dense index in [0, min(num_threads, n)), for
/// indexing per-thread scratch. The calling thread participates as thread 0,
/// so num_threads == 1 degenerates to a plain loop with no spawns. The first
/// exception thrown by any iteration is rethrown on the caller once all
/// threads have joined (remaining iterations still run).
template <typename Fn>
void ParallelForEachIndexWithThread(uint32_t num_threads, uint64_t n,
                                    Fn&& fn) {
  num_threads = ResolveThreadCount(num_threads);
  if (num_threads <= 1 || n <= 1) {
    for (uint64_t i = 0; i < n; ++i) fn(i, uint32_t{0});
    return;
  }
  std::atomic<uint64_t> next{0};
  std::exception_ptr error;
  Mutex error_mutex;
  auto worker = [&](uint32_t thread) {
    for (;;) {
      uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i, thread);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
        // Keep draining indices so sibling threads are not starved into
        // running iterations this thread would otherwise have absorbed;
        // remaining work still runs, only the first error is reported.
      }
    }
  };
  uint32_t spawned = static_cast<uint32_t>(std::min<uint64_t>(num_threads, n)) - 1;
  std::vector<std::thread> threads;
  threads.reserve(spawned);
  for (uint32_t t = 0; t < spawned; ++t) {
    threads.emplace_back([&worker, t] { worker(t + 1); });
  }
  worker(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// ParallelForEachIndexWithThread without the thread index.
template <typename Fn>
void ParallelForEachIndex(uint32_t num_threads, uint64_t n, Fn&& fn) {
  ParallelForEachIndexWithThread(num_threads, n,
                                 [&fn](uint64_t i, uint32_t) { fn(i); });
}

/// Deterministic parallel sort: the result equals std::sort with the same
/// strict-weak-order comparator (chunk sort + pairwise inplace_merge, so ties
/// must be broken by the comparator itself, as std::sort also requires for a
/// unique answer). Falls back to std::sort for small inputs or 1 thread.
template <typename T, typename Less>
void ParallelSort(std::vector<T>& items, Less less, uint32_t num_threads) {
  num_threads = ResolveThreadCount(num_threads);
  constexpr size_t kMinParallelSize = 1 << 14;
  if (num_threads <= 1 || items.size() < kMinParallelSize) {
    std::sort(items.begin(), items.end(), less);
    return;
  }
  // Chunk boundaries: one even-sized chunk per thread.
  size_t chunks = num_threads;
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = items.size() * c / chunks;
  ParallelForEachIndex(num_threads, chunks, [&](uint64_t c) {
    std::sort(items.begin() + bounds[c], items.begin() + bounds[c + 1], less);
  });
  // log2(chunks) rounds of pairwise merges, each round's merges in parallel.
  for (size_t width = 1; width < chunks; width *= 2) {
    std::vector<std::array<size_t, 3>> merges;
    for (size_t c = 0; c + width < chunks; c += 2 * width) {
      merges.push_back({bounds[c], bounds[c + width],
                        bounds[std::min(c + 2 * width, chunks)]});
    }
    ParallelForEachIndex(num_threads, merges.size(), [&](uint64_t m) {
      auto [lo, mid, hi] = merges[m];
      std::inplace_merge(items.begin() + lo, items.begin() + mid,
                         items.begin() + hi, less);
    });
  }
}

}  // namespace kosr

#endif  // KOSR_UTIL_PARALLEL_H_
