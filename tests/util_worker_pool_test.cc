#include "src/util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace depsurf {
namespace {

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnce) {
  constexpr size_t kTasks = 2000;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::future<void>> futures;
  {
    WorkerPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      futures.push_back(pool.Submit([&runs, i] { runs[i].fetch_add(1); }));
    }
    for (std::future<void>& future : futures) {
      future.get();
    }
  }
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(WorkerPoolTest, FutureCarriesResultOrException) {
  WorkerPool pool(2);
  std::future<int> value = pool.Submit([] { return 6 * 7; });
  std::future<std::string> text = pool.Submit([] { return std::string("done"); });
  std::future<int> thrown = pool.Submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(value.get(), 42);
  EXPECT_EQ(text.get(), "done");
  try {
    thrown.get();
    ADD_FAILURE() << "the task's exception did not reach its future";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task failed");
  }
  // A task that threw leaves its worker running.
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(WorkerPoolTest, DestructionRunsQueuedTasksBeforeJoining) {
  constexpr int kQueued = 100;
  std::atomic<int> ran{0};
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::thread opener;
  {
    WorkerPool pool(1);
    // The one worker waits on the gate, so every later task is still
    // queued when the destructor starts.
    pool.Submit([opened] { opened.wait(); });
    for (int i = 0; i < kQueued; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });  // futures dropped on purpose
    }
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.set_value();
    });
  }
  opener.join();
  EXPECT_EQ(ran.load(), kQueued);
}

TEST(WorkerPoolTest, WidthOneRunsInSubmissionOrder) {
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  WorkerPool pool(1);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (std::future<void>& future : futures) {
    future.get();
  }
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace depsurf
