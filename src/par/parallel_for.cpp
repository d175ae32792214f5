#include "par/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "par/thread_pool.hpp"

namespace m2ai::par {

namespace {

std::atomic<int> g_threads{0};  // 0 = hardware default
thread_local bool tl_in_region = false;

// The shared pool holds num_threads() - 1 workers; the calling thread is
// the remaining worker. Resizing (rare: a --threads change between runs)
// swaps the pool under the mutex; the old pool drains gracefully.
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void set_num_threads(int n) {
  g_threads.store(n <= 0 ? 0 : n, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::registry().gauge("par.threads").set(static_cast<double>(num_threads()));
  }
}

int num_threads() {
  const int t = g_threads.load(std::memory_order_relaxed);
  return t == 0 ? hardware_threads() : t;
}

bool in_parallel_region() { return tl_in_region; }

ScopedNumThreads::ScopedNumThreads(int n)
    : previous_(g_threads.load(std::memory_order_relaxed)) {
  set_num_threads(n);
}

ScopedNumThreads::~ScopedNumThreads() { set_num_threads(previous_); }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int threads = num_threads();

  // Serial path: configured serial, trivially small, or nested inside
  // another parallel region (workers must never block on the shared pool).
  if (threads <= 1 || n == 1 || tl_in_region) {
    const bool was_in_region = tl_in_region;
    tl_in_region = true;
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      tl_in_region = was_in_region;
      throw;
    }
    tl_in_region = was_in_region;
    return;
  }

  if (obs::enabled()) {
    obs::registry().counter("par.parallel_for_calls").add(1);
    obs::registry().counter("par.parallel_for_items").add(n);
  }

  const int drivers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads), n));

  // Shared work-claiming state. Dynamic index claiming balances uneven
  // bodies; determinism is unaffected because every result lands in its
  // index's slot regardless of which thread claims it.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto drive = [&] {
    tl_in_region = true;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    tl_in_region = false;
  };

  // Per-call completion latch for the pool-side drivers.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = drivers - 1;

  if (obs::timeline_enabled()) {
    obs::TimelineArgs args;
    args.key1 = "items";
    args.value1 = static_cast<std::int64_t>(n);
    args.key2 = "drivers";
    args.value2 = drivers;
    obs::timeline_instant("par.dispatch", args);
  }

  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool || g_pool->size() != threads - 1) {
      g_pool = std::make_unique<ThreadPool>(threads - 1);
    }
    for (int d = 0; d < drivers - 1; ++d) {
      g_pool->submit([&] {
        drive();
        // Notify under the lock: once the caller can see remaining == 0 it
        // returns and destroys the stack condition variable, so the notify
        // must be over before the lock is released.
        std::lock_guard<std::mutex> dl(done_mu);
        --remaining;
        done_cv.notify_one();
      });
    }
  }

  drive();  // the caller is a worker too

  // Drain: the caller ran out of indices and waits for pool-side drivers.
  const bool record_drain = obs::timeline_enabled();
  const std::uint64_t drain_start = record_drain ? obs::timeline_now_ns() : 0;
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (record_drain) {
    obs::timeline_complete("par.drain", drain_start,
                           obs::timeline_now_ns() - drain_start);
  }

  if (first_error) std::rethrow_exception(first_error);
}

int chunk_workers(std::size_t n) {
  if (n == 0) return 0;
  if (tl_in_region) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(num_threads()), n));
}

void parallel_chunks(std::size_t n, int workers,
                     const std::function<void(int, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t w_count = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(workers, 1)), n));
  const std::size_t chunk = (n + w_count - 1) / w_count;
  parallel_for(w_count, [&](std::size_t w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin < end) body(static_cast<int>(w), begin, end);
  });
}

}  // namespace m2ai::par
