#include "src/common/thread_pool.h"

#include <utility>

namespace flint {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Close() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  // Workers drain the remaining queue before exiting, so every task accepted
  // before Close still runs (and pushes its outcome) exactly once.
  work_available_.NotifyAll();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mutex_);
    if (shutdown_) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
  return true;
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  while (!(queue_.empty() && in_flight_ == 0)) {
    all_done_.Wait(mutex_);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && queue_.empty()) {
        work_available_.Wait(mutex_);
      }
      if (queue_.empty()) {
        // shutdown_ is set and nothing left to run.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    // Destroy the task (and everything it captured) BEFORE reporting
    // completion: a caller unblocked by Wait() may immediately release its
    // references to objects the closure co-owns — including, transitively,
    // this very pool — and the last release must not happen on a worker
    // thread (a pool destroying itself from its own worker would self-join).
    task = nullptr;
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        all_done_.NotifyAll();
      }
    }
  }
}

}  // namespace flint
