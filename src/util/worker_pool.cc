#include "src/util/worker_pool.h"

#include <algorithm>

namespace depsurf {

WorkerPool::WorkerPool(size_t threads) {
  threads = std::max<size_t>(threads, 1);
  threads_.reserve(threads);
  try {
    for (size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Run(); });
    }
  } catch (...) {
    StopAndJoin();  // the destructor will not run; never leave a thread unjoined
    throw;
  }
}

WorkerPool::~WorkerPool() { StopAndJoin(); }

void WorkerPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void WorkerPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void WorkerPool::Run() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and every queued task has run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace depsurf
