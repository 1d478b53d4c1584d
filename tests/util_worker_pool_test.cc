#include "src/util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

TEST(WorkerPoolTest, ForEachIndexRunsEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    WorkerPool pool(threads);
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{37}, size_t{5000}}) {
      std::vector<std::atomic<int>> runs(count);
      pool.ForEachIndex(count, [&runs](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "index " << i << " of " << count << ", " << threads
                                     << " threads";
      }
    }
  }
  // Back-to-back batches reuse the same helpers.
  WorkerPool pool(3);
  std::atomic<size_t> total{0};
  for (int batch = 0; batch < 300; ++batch) {
    pool.ForEachIndex(11, [&total](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 3300u);
}

// Width 1 (the caller alone) is a pool without threads, or a single index.
TEST(WorkerPoolTest, ForEachIndexAtWidthOneRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  WorkerPool empty(0);
  WorkerPool wide(4);
  for (auto [pool, count] : {std::pair<WorkerPool*, size_t>{&empty, 200}, {&wide, 1}}) {
    std::vector<size_t> order;
    bool elsewhere = false;
    pool->ForEachIndex(count, [&](size_t i) {
      order.push_back(i);
      elsewhere = elsewhere || std::this_thread::get_id() != caller;
    });
    ASSERT_EQ(order.size(), count);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i);
    }
    EXPECT_FALSE(elsewhere);
  }
  // A pool without threads runs a submitted task before Submit returns.
  std::future<int> ran = empty.Submit([] { return 7; });
  EXPECT_EQ(ran.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(ran.get(), 7);
}

TEST(WorkerPoolTest, ForEachIndexRethrowsOnlyAfterEveryHelperStopped) {
  WorkerPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> active{0};
    std::atomic<int> ran{0};
    int active_at_catch = -1;
    try {
      pool.ForEachIndex(400, [&](size_t i) {
        active.fetch_add(1);
        ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        active.fetch_sub(1);
        if (i == 9) {
          throw std::runtime_error("index 9 failed");
        }
      });
      ADD_FAILURE() << "the body's exception did not reach the caller";
    } catch (const std::runtime_error& error) {
      active_at_catch = active.load();
      EXPECT_STREQ(error.what(), "index 9 failed");
    }
    EXPECT_EQ(active_at_catch, 0) << "a helper was still inside the body, round " << round;
    EXPECT_LT(ran.load(), 400) << "claiming went on after the failure, round " << round;
  }
  // The helpers survive a failed batch.
  std::atomic<int> after{0};
  pool.ForEachIndex(50, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

}  // namespace
}  // namespace depsurf
