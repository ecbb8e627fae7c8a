#include "exec/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "util/check.h"

namespace crowdtopk::exec {

ThreadPool::ThreadPool(int64_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int64_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  CROWDTOPK_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CROWDTOPK_CHECK(!stop_);
    tasks_.push_back(std::move(task));
    ++unfinished_;
  }
  wake_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return unfinished_ == 0; });
}

int64_t ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stop_, and nothing left to run
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    try {
      task();
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "exec::ThreadPool: task threw \"%s\"; pool tasks must "
                   "not throw (use ParallelFor to propagate exceptions)\n",
                   e.what());
      std::abort();
    } catch (...) {
      std::fprintf(stderr, "exec::ThreadPool: task threw; aborting\n");
      std::abort();
    }
    task = nullptr;  // release its captures before it counts as finished
    lock.lock();
    if (--unfinished_ == 0) drained_.notify_all();
  }
}

}  // namespace crowdtopk::exec
