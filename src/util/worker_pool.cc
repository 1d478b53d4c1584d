#include "src/util/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace depsurf {

WorkerPool::WorkerPool(size_t threads) {
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

void WorkerPool::Enqueue(const std::function<void()>& task, size_t copies) {
  if (threads_.empty()) {
    for (size_t i = 0; i < copies; ++i) {
      task();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.end(), copies, task);
  }
  if (copies == 1) {
    ready_.notify_one();
  } else {
    ready_.notify_all();
  }
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

void WorkerPool::ForEachIndex(size_t count, const std::function<void(size_t)>& body) {
  const size_t help = count > 1 ? std::min(count - 1, threads_.size()) : 0;
  if (help == 0) {
    for (size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  // Everything the helpers touch lives on this frame, which outlives them:
  // the caller leaves only once `running` is back to zero.
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;  // guards running, first_error
  std::condition_variable stopped;
  size_t running = help;
  std::exception_ptr first_error;
  auto claim = [&] {
    try {
      while (!failed) {
        const size_t i = next++;
        if (i >= count) {
          break;
        }
        body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error == nullptr) {
        first_error = std::current_exception();
      }
      failed = true;
    }
  };
  Enqueue(
      [&] {
        claim();
        std::lock_guard<std::mutex> lock(mu);
        // Notify under the lock: once `running` reads zero the caller may
        // return and destroy `stopped`.
        if (--running == 0) {
          stopped.notify_one();
        }
      },
      help);
  claim();
  std::unique_lock<std::mutex> lock(mu);
  stopped.wait(lock, [&] { return running == 0; });
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace depsurf
