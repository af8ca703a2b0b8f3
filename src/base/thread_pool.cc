#include "src/base/thread_pool.h"

#include <atomic>

#include "src/base/failpoint.h"
#include "src/base/macros.h"

namespace apcm {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  APCM_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with drained queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    // Chaos seam: delay/yield here perturbs which worker runs which task
    // (e.g. rebuild vs. checkpoint ordering) without changing task contents.
    APCM_FAILPOINT("threadpool.dispatch");
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    APCM_CHECK(!shutdown_);
    tasks_.push_back(std::move(fn));
  }
  task_available_.notify_one();
}

std::future<void> ThreadPool::SubmitWithFuture(std::function<void()> fn) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> future = done->get_future();
  Submit([fn = std::move(fn), done = std::move(done)] {
    fn();
    done->set_value();
  });
  return future;
}

void ThreadPool::Wait() {
  // With no spawned workers the caller must drain the queue itself.
  if (num_threads_ == 1) {
    while (true) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      APCM_FAILPOINT("threadpool.dispatch");
      task();
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::ParallelFor(
    uint64_t n, const std::function<void(uint64_t, uint64_t, int)>& fn) {
  if (n == 0) return;
  const uint64_t shards = static_cast<uint64_t>(num_threads_);
  if (shards == 1) {
    fn(0, n, 0);
    return;
  }
  const uint64_t base = n / shards;
  const uint64_t extra = n % shards;
  auto shard_bounds = [&](uint64_t s) {
    const uint64_t begin = s * base + std::min(s, extra);
    const uint64_t end = begin + base + (s < extra ? 1 : 0);
    return std::pair<uint64_t, uint64_t>(begin, end);
  };

  // The rendezvous state lives on this stack frame, so the decrement and
  // notify happen under done_mu: once the waiter observes remaining == 0
  // (also under done_mu), every worker has released the mutex and will not
  // touch the condition variable again, making it safe to return (and
  // destroy the state).
  int remaining = num_threads_ - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (int s = 1; s < num_threads_; ++s) {
    const auto [begin, end] = shard_bounds(static_cast<uint64_t>(s));
    Submit([&, begin, end, s] {
      if (begin < end) fn(begin, end, s);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  const auto [begin0, end0] = shard_bounds(0);
  if (begin0 < end0) fn(begin0, end0, 0);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace apcm
