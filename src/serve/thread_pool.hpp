// A reusable fixed-size worker pool — the generalization of the ad-hoc
// thread-per-sweep pool core/dse.cpp used to spin up.
//
// Header-only on purpose: core/ (a lower layer than serve/) reuses the pool
// for DSE sweeps without linking against the serve library, and the serve
// DecodeServer builds its session scheduling on top of it.
//
// Semantics:
//  * submit() enqueues a job; any idle worker picks it up.
//  * wait_idle() blocks until every submitted job has finished.
//  * The destructor drains the queue (queued jobs still run) and joins.
//  * parallel_for() is the DSE idiom: split [0, n) across the workers via
//    an atomic cursor and block until all indices are done.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace kalmmind::serve {

class ThreadPool {
 public:
  // workers == 0 => one worker per hardware thread.
  explicit ThreadPool(unsigned workers = 0) {
    unsigned n = workers != 0 ? workers
                              : std::max(1u, std::thread::hardware_concurrency());
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  unsigned size() const { return unsigned(threads_.size()); }

  // Enqueue one job.  Throws if the pool is shutting down.
  void submit(std::function<void()> job) {
    if (!try_submit(std::move(job))) {
      throw std::runtime_error("ThreadPool::submit: pool is shut down");
    }
  }

  // Enqueue one job unless the pool is shutting down; returns whether it
  // was enqueued.  For optional work posted from inside running jobs,
  // which may race shutdown().
  bool try_submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return false;
      queue_.push_back(std::move(job));
      ++pending_;
    }
    work_cv_.notify_one();
    return true;
  }

  // Block until every job submitted so far (and any jobs those jobs
  // submit) has completed.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  // Run body(i) for every i in [0, n), spread across the pool, and return
  // when all are done.  Indices are handed out through an atomic cursor so
  // uneven per-index cost balances automatically (the DSE sweep pattern).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    if (size() == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    struct CallState {
      std::atomic<std::size_t> next{0};
      std::atomic<unsigned> remaining{0};
      std::mutex mu;
      std::condition_variable done_cv;
    };
    auto state = std::make_shared<CallState>();
    const unsigned jobs = unsigned(std::min<std::size_t>(size(), n));
    state->remaining.store(jobs, std::memory_order_relaxed);
    for (unsigned j = 0; j < jobs; ++j) {
      submit([state, n, &body] {
        for (;;) {
          const std::size_t i =
              state->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          body(i);
        }
        if (state->remaining.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> lock(state->mu);
          state->done_cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->remaining.load() == 0; });
  }

  // Stop accepting work, finish everything already queued, join workers.
  // Safe to call more than once.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and fully drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;  // queued + currently running
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace kalmmind::serve
