// Fixed-size worker pool behind the engine's executors. Tasks are arbitrary
// std::function<void()>; the pool drains and joins in the destructor.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace flint {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Never blocks. Returns false if the pool is closed or
  // shutting down — callers that cannot tolerate a dropped task must check.
  [[nodiscard]] bool Submit(std::function<void()> task);

  // Stops accepting new tasks. Tasks already queued or running still finish;
  // Wait() and the destructor behave as before. Used when a node receives a
  // revocation warning: it keeps executing but must not take new work.
  void Close();

  // Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  Mutex mutex_{"ThreadPool::mutex_"};
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  // flint-lint: allow(lock-missing-guard) filled in the constructor, joined in the destructor; immutable while workers run
  std::vector<std::thread> threads_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

}  // namespace flint

#endif  // SRC_COMMON_THREAD_POOL_H_
