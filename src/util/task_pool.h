// Persistent worker pool for embarrassingly parallel index loops.
//
// The sharded testbed runs one deterministic sub-world per edge subtree and
// needs to step all of them once per time window: thousands of windows per
// run, each a few hundred microseconds of work per worker. Spawning threads
// per window (the cadet_sweep pattern) would cost more than the window
// body, and so would a lock per index. TaskPool keeps `workers - 1` threads
// and splits each run() statically: range w of j holds the contiguous
// indices [w·count/j, (w+1)·count/j). Worker w runs range w and the calling
// thread runs range j - 1, so TaskPool(1) executes inline with zero threads
// and zero synchronization, and an index stays on one core from window to
// window. After its own range the caller also runs any range whose worker
// has not started it: a parked worker can take longer to wake up than a
// small world's whole window.
//
// The barrier is atomics only. run() publishes the task and bumps a
// generation counter (release); whoever finishes a range counts a
// countdown down, and run() returns once it reads zero (acquire). So
// everything the tasks of one run() wrote happens-before run() returns and
// before the next run() starts, with no atomics in the tasks. A waiting
// side spins for about two window barriers (kSpin), then parks in
// std::atomic::wait; the other side notifies only when someone is parked.
// A pool with more workers than the host has hardware threads never spins:
// a spinning waiter would hold the core its peer needs.
//
// Determinism note: the pool lives in src/util (the threaded tier) and is
// only ever handed to deterministic code as an opaque executor callback —
// which shard runs on which thread never influences simulation results,
// because shards touch disjoint state during a window and merge at a
// single-threaded barrier (see sim/merge_queue.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace cadet::util {

class TaskPool {
 public:
  using Task = std::function<void(std::size_t)>;

  /// `workers` is the total parallelism including the caller; the pool
  /// spawns workers - 1 threads (0 means 1).
  explicit TaskPool(std::size_t workers)
      : spin_(std::thread::hardware_concurrency() >= workers),
        taken_(std::make_unique<std::atomic<std::uint32_t>[]>(
            workers == 0 ? 1 : workers)) {
    if (workers == 0) workers = 1;
    threads_.reserve(workers - 1);
    for (std::size_t w = 0; w + 1 < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    stop_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  std::size_t workers() const noexcept { return threads_.size() + 1; }

  /// Run task(0), task(1), ..., task(count - 1), split across the workers;
  /// returns once every index has completed. Not reentrant: run() must not
  /// be called from inside a task, nor from two threads at once.
  void run(std::size_t count, const Task& task) {
    if (count == 0) return;
    if (threads_.empty() || count == 1) {
      for (std::size_t i = 0; i < count; ++i) task(i);
      return;
    }
    task_ = &task;
    count_ = count;
    remaining_.store(static_cast<std::uint32_t>(workers()),
                     std::memory_order_relaxed);
    // seq_cst pairs the bump with the parked_ read below, and a worker's
    // parked_ increment with its generation re-read: either the worker
    // sees the new generation or run() sees it parked and wakes it.
    const std::uint32_t gen =
        generation_.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      generation_.notify_all();
    }
    // The caller's own range, then every range whose worker has not
    // started it yet: a parked worker can take longer to wake up than a
    // small world's whole window.
    take(threads_.size(), gen);
    for (std::size_t w = 0; w < threads_.size(); ++w) take(w, gen);
    if (spin([this] {
          return remaining_.load(std::memory_order_acquire) == 0;
        })) {
      return;
    }
    caller_parked_.store(true, std::memory_order_seq_cst);
    for (std::uint32_t left;
         (left = remaining_.load(std::memory_order_seq_cst)) != 0;) {
      remaining_.wait(left, std::memory_order_acquire);
    }
    caller_parked_.store(false, std::memory_order_relaxed);
  }

 private:
  /// About two window barriers of the 1M-client scale world (~24 µs each),
  /// so workers stay awake across a barrier but park through long gaps.
  static constexpr std::chrono::microseconds kSpin{50};

  /// Run range `worker` of generation `gen` unless its worker or the caller
  /// already has. Each range is taken exactly once per generation, so its
  /// flag holds gen - 1 until then.
  void take(std::size_t worker, std::uint32_t gen) {
    std::uint32_t expected = gen - 1;
    if (!taken_[worker].compare_exchange_strong(expected, gen,
                                                std::memory_order_acq_rel)) {
      return;
    }
    const std::size_t j = workers();
    const std::size_t end = (worker + 1) * count_ / j;
    for (std::size_t i = worker * count_ / j; i < end; ++i) (*task_)(i);
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        caller_parked_.load(std::memory_order_seq_cst)) {
      remaining_.notify_one();
    }
  }

  /// Spin until done() holds or kSpin has passed; returns done().
  template <typename Done>
  bool spin(Done&& done) const {
    if (done()) return true;
    if (!spin_) return false;
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (;;) {
      for (int k = 0; k < 64; ++k) {
        relax();
        if (done()) return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return done();
    }
  }

  static void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void worker_loop(std::size_t worker) {
    std::uint32_t seen = 0;
    for (;;) {
      if (!spin([&] {
            return generation_.load(std::memory_order_acquire) != seen;
          })) {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        while (generation_.load(std::memory_order_seq_cst) == seen) {
          generation_.wait(seen, std::memory_order_acquire);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      seen = generation_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_relaxed)) return;
      take(worker, seen);
    }
  }

  const bool spin_;
  // Written by run() before the generation bump, read by whoever takes a
  // range after it.
  const Task* task_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> remaining_{0};  // ranges not yet finished
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stop_{false};
  std::unique_ptr<std::atomic<std::uint32_t>[]> taken_;  // per range
  std::vector<std::thread> threads_;
};

}  // namespace cadet::util
