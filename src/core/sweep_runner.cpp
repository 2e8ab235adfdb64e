#include "core/sweep_runner.h"

namespace tmc::core {

namespace {
// Set inside pool workers so a nested map() runs its batch inline instead of
// queueing tasks its own (blocked) worker would never pick up.
thread_local bool in_sweep_worker = false;
}  // namespace

int SweepRunner::resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepRunner::SweepRunner(int threads) : threads_(resolve_threads(threads)) {
  if (threads_ > 1) {
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

SweepRunner::~SweepRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void SweepRunner::worker_loop() {
  in_sweep_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void SweepRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              const Progress& progress) {
  if (count == 0) return;
  if (workers_.empty() || in_sweep_worker) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
      if (progress) progress(i + 1, count);
    }
    return;
  }

  struct BatchState {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
  } state;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      queue_.push_back([&body, &state, i] {
        body(i);
        // Notify under the lock: once the caller sees done == count it
        // returns and destroys `state`, so the signal must not outlive it.
        const std::lock_guard<std::mutex> batch_lock(state.mutex);
        ++state.done;
        state.done_cv.notify_one();
      });
    }
  }
  work_ready_.notify_all();

  std::size_t reported = 0;
  std::unique_lock<std::mutex> lock(state.mutex);
  while (reported < count) {
    state.done_cv.wait(lock, [&] { return state.done > reported; });
    reported = state.done;
    if (progress) {
      lock.unlock();
      progress(reported, count);
      lock.lock();
    }
  }
}

}  // namespace tmc::core
