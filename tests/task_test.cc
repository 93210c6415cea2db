// Coroutine task types: Co<T> composition, SimTask lifecycle, exceptions.
#include "src/sim/task.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/engine.h"

namespace tlbsim {
namespace {

Co<int> Return42() { co_return 42; }

Co<int> AddOne(Co<int> inner) {
  int v = co_await std::move(inner);
  co_return v + 1;
}

Co<std::string> Greet(const std::string& name) { co_return "hello " + name; }

Co<void> SideEffect(int* out) {
  *out = 7;
  co_return;
}

Co<int> Throws() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

Co<int> CatchesInner() {
  try {
    co_await Throws();
  } catch (const std::runtime_error& e) {
    co_return 99;
  }
  co_return -1;
}

SimTask Driver(std::function<Co<void>()> body, bool* done) {
  co_await body();
  *done = true;
}

TEST(CoTest, ReturnsValue) {
  bool done = false;
  int got = 0;
  auto task = Driver(
      [&]() -> Co<void> {
        got = co_await Return42();
      },
      &done);
  task.Start();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, 42);
}

TEST(CoTest, ComposesNestedTasks) {
  bool done = false;
  int got = 0;
  auto task = Driver(
      [&]() -> Co<void> {
        got = co_await AddOne(AddOne(Return42()));
      },
      &done);
  task.Start();
  EXPECT_EQ(got, 44);
}

TEST(CoTest, StringValues) {
  bool done = false;
  std::string got;
  auto task = Driver(
      [&]() -> Co<void> {
        got = co_await Greet("world");
      },
      &done);
  task.Start();
  EXPECT_EQ(got, "hello world");
}

TEST(CoTest, VoidTaskRunsSideEffects) {
  bool done = false;
  int out = 0;
  auto task = Driver(
      [&]() -> Co<void> {
        co_await SideEffect(&out);
      },
      &done);
  task.Start();
  EXPECT_EQ(out, 7);
}

TEST(CoTest, ExceptionPropagatesToAwaiter) {
  bool done = false;
  int got = 0;
  auto task = Driver(
      [&]() -> Co<void> {
        got = co_await CatchesInner();
      },
      &done);
  task.Start();
  EXPECT_EQ(got, 99);
  EXPECT_TRUE(done);
}

TEST(CoTest, DroppedUnstartedTaskDoesNotRun) {
  int out = 0;
  {
    Co<void> t = SideEffect(&out);
    // dropped without co_await
  }
  EXPECT_EQ(out, 0);
}

TEST(SimTaskTest, StartsSuspended) {
  bool ran = false;
  auto t = Driver([&]() -> Co<void> { co_return; }, &ran);
  EXPECT_FALSE(ran);
  t.Start();
  EXPECT_TRUE(ran);
}

TEST(SimTaskTest, OnDoneCallbackFires) {
  bool ran = false;
  bool done_cb = false;
  auto t = Driver([&]() -> Co<void> { co_return; }, &ran);
  t.set_on_done([&] { done_cb = true; });
  t.Start();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(done_cb);
}

TEST(SimTaskTest, EngineSpawnRunsTask) {
  Engine e;
  bool ran = false;
  e.Spawn(50, Driver([&]() -> Co<void> { co_return; }, &ran));
  EXPECT_FALSE(ran);
  e.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 50);
}

TEST(SimTaskTest, ManySequentialAwaits) {
  bool done = false;
  int count = 0;
  auto t = Driver(
      [&]() -> Co<void> {
        for (int i = 0; i < 1000; ++i) {
          count += co_await Return42();
        }
      },
      &done);
  t.Start();
  EXPECT_EQ(count, 42000);
}

// Coroutine frames are recycled through FramePool: after a warmup pass that
// populates the size buckets, repeated spawn/complete cycles of the same
// coroutine shapes must be served entirely from the free lists.
TEST(FramePoolTest, SteadyStateFramesComeFromFreeLists) {
  auto burst = [] {
    for (int i = 0; i < 16; ++i) {
      bool done = false;
      int got = 0;
      auto task = Driver([&]() -> Co<void> { got = co_await AddOne(Return42()); }, &done);
      task.Start();
      EXPECT_TRUE(done);
      EXPECT_EQ(got, 43);
    }
  };
  burst();  // warmup: fills the buckets for these frame sizes
  FramePool::Stats before = FramePool::stats();
  burst();
  FramePool::Stats after = FramePool::stats();
  EXPECT_GT(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.pool_misses, before.pool_misses) << "steady state hit the heap";
  EXPECT_EQ(after.fallback_allocs, before.fallback_allocs);
}

// Frames pooled on a worker thread are freed when the thread exits, not
// dropped with its thread_local buckets: LeakSanitizer (the sanitizer CI
// job) reports them otherwise, as it did for sweep worker threads.
TEST(FramePoolTest, WorkerThreadReleasesFramesAtExit) {
  int got = 0;
  FramePool::Stats worker{};
  std::thread worker_thread([&] {
    for (int i = 0; i < 4; ++i) {
      bool done = false;
      auto task = Driver([&]() -> Co<void> { got = co_await AddOne(Return42()); }, &done);
      task.Start();
    }
    worker = FramePool::stats();
  });
  worker_thread.join();
  EXPECT_EQ(got, 43);
  EXPECT_GT(worker.pool_misses, 0u);  // the thread pooled frames of its own
  EXPECT_GT(worker.pool_hits, 0u);
}

}  // namespace
}  // namespace tlbsim
