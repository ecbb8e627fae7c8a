// Thread pool: the bottom layer of the execution subsystem.
//
// N worker threads take tasks from one FIFO queue guarded by one mutex.
// The only production client, ParallelFor, submits identical helper loops
// that claim indices from a shared atomic cursor, so the loop balances
// itself whichever worker picks up which helper; the pool needs no second
// scheduling policy.
//
// The pool makes no ordering or fairness promises — determinism is the
// responsibility of the layers above (parallel_for assigns work by index,
// run_engine derives per-task RNG streams by index and keeps records in
// index order), which is exactly what lets this layer schedule greedily.
//
// Tasks must not throw: an exception escaping a task aborts the process
// with a diagnostic (there is nobody to rethrow to on a worker thread).
// Layers that run user code (parallel_for) wrap it and transport the first
// exception back to the caller instead.
//
// Destruction drains: ~ThreadPool() waits for every already-submitted task
// to finish before joining the workers, so captured references stay valid
// for the lifetime of the pool object.

#ifndef CROWDTOPK_EXEC_THREAD_POOL_H_
#define CROWDTOPK_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdtopk::exec {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int64_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains all pending tasks, then joins the workers.
  ~ThreadPool();

  int64_t num_threads() const {
    return static_cast<int64_t>(threads_.size());
  }

  // Enqueues `task` for execution on some worker thread. Thread-safe.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished. Thread-safe, but
  // must not be called from inside a pool task (it would wait on itself).
  void Drain();

  // Best-effort hardware concurrency; at least 1.
  static int64_t HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;  // guards tasks_, unfinished_ and stop_
  std::condition_variable wake_;     // workers wait here when idle
  std::condition_variable drained_;  // Drain()/dtor wait here
  std::deque<std::function<void()>> tasks_;
  int64_t unfinished_ = 0;  // submitted but not yet completed
  bool stop_ = false;

  // Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace crowdtopk::exec

#endif  // CROWDTOPK_EXEC_THREAD_POOL_H_
