// A fixed set of persistent worker threads draining one FIFO task queue.
//
// `Submit(f)` queues `f` and returns a std::future that carries its result
// or the exception it threw. Tasks start in submission order; with one
// thread they also finish in that order. A pool of zero threads runs each
// task inside Submit, on the calling thread. The destructor runs every task
// still queued, then joins the threads. There is no resizing, priority or
// work stealing: callers that want a bounded window (study builds) keep it
// themselves and consume the futures in order.
//
// `ForEachIndex(count, body)` is the other way in, for a batch of
// independent items (serve's cache misses): the calling thread and the
// pool's threads claim indices from one shared counter, so each helper is
// woken once per batch rather than once per item, and the caller works
// instead of waiting.
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
  // Starts `threads` workers; zero is allowed (see Submit).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  template <typename F>
  std::future<std::invoke_result_t<F&>> Submit(F f) {
    // std::function needs a copyable target; the shared task is one.
    auto task = std::make_shared<std::packaged_task<std::invoke_result_t<F&>()>>(std::move(f));
    auto future = task->get_future();
    Enqueue([task] { (*task)(); }, 1);
    return future;
  }

  // Runs body(i) once for every i in [0, count). The calling thread claims
  // indices from a shared counter, helped by min(threads(), count - 1) pool
  // threads; with none (a zero-thread pool, or one index) the indices run
  // inline, in order. Returns once every helper has stopped; if a body
  // threw, no further index is claimed and the first exception is rethrown
  // then. Call it from outside the pool: a task that calls it can wait
  // forever for helpers queued behind itself.
  void ForEachIndex(size_t count, const std::function<void(size_t)>& body);

 private:
  void Enqueue(const std::function<void()>& task, size_t copies);
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
