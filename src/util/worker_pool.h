// A fixed set of persistent worker threads draining one FIFO task queue.
//
// `Submit(f)` queues `f` and returns a std::future that carries its result
// or the exception it threw. Tasks start in submission order; with one
// thread they also finish in that order. The destructor runs every task
// still queued, then joins the threads. There is no resizing, priority or
// work stealing: callers that want a bounded window (serve batches, study
// builds) keep it themselves and consume the futures in order.
//
// Reusing the threads is the point. Starting and joining one thread per
// task costs tens of microseconds, as much as a cached serve answer.
#ifndef DEPSURF_SRC_UTIL_WORKER_POOL_H_
#define DEPSURF_SRC_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace depsurf {

class WorkerPool {
 public:
  // Starts `threads` workers (at least one).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  template <typename F>
  std::future<std::invoke_result_t<F&>> Submit(F f) {
    // std::function needs a copyable target; the shared task is one.
    auto task = std::make_shared<std::packaged_task<std::invoke_result_t<F&>()>>(std::move(f));
    auto future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void Enqueue(std::function<void()> task);
  void Run();
  void StopAndJoin();

  std::mutex mu_;  // guards queue_ and stopping_
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_WORKER_POOL_H_
