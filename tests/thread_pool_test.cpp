// util::ThreadPool: the sharded runtime's execution substrate. Jobs all
// run exactly once, worker exceptions surface at the join point, and
// destruction drains the queue. Plus util::WorkStealingPool, the survey
// service's scheduler: the same contracts under stealing, oversubscription
// and empty-victim races, with the steal counters accounting exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/work_stealing_pool.hpp"

namespace reorder::util {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool{4};
    std::vector<std::future<void>> done;
    for (int i = 0; i < 100; ++i) {
      done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
    }
    for (auto& f : done) f.get();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, SpreadsWorkAcrossWorkers) {
  std::mutex mu;
  std::set<std::thread::id> workers;
  std::atomic<int> rendezvous{0};
  ThreadPool pool{2};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 2; ++i) {
    done.push_back(pool.submit([&] {
      // Hold both workers in the job until each has arrived, so two
      // distinct threads must participate.
      rendezvous.fetch_add(1);
      while (rendezvous.load() < 2) std::this_thread::yield();
      const std::lock_guard<std::mutex> lock{mu};
      workers.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(workers.size(), 2u);
}

TEST(ThreadPool, ExceptionsSurfaceThroughTheFuture) {
  ThreadPool pool{2};
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error{"shard failed"}; });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructionDrainsPendingJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool{1};
    for (int i = 0; i < 8; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // ~ThreadPool joins only after the queue is empty
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(WorkStealingPool, RunsEveryJobExactlyOnceWithStealing) {
  std::atomic<int> counter{0};
  WorkStealingPool pool{4};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 200; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(WorkStealingPool, SurvivesOversubscription) {
  // Far more workers than cores: correctness must not depend on every
  // worker making progress promptly (context switches only cost time).
  const std::size_t threads = 4 * ThreadPool::hardware_threads();
  std::atomic<int> counter{0};
  WorkStealingPool pool{threads};
  EXPECT_EQ(pool.size(), threads);
  std::vector<std::future<void>> done;
  for (int i = 0; i < 500; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(WorkStealingPool, EmptyVictimRacesAreHarmless) {
  // Many thieves, almost no work, several producers racing tiny bursts in:
  // most steal probes hit EMPTY deques concurrently with pushes and pops.
  // The assertion here is exactly-once execution; under TSAN this is also
  // the data-race gauntlet for the per-deque locking.
  WorkStealingPool pool{8};
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  std::mutex mu;
  std::vector<std::future<void>> done;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.submit([&counter] { counter.fetch_add(1); });
        const std::lock_guard<std::mutex> lock{mu};
        done.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 4 * 50);
}

TEST(WorkStealingPool, StealCountersAccountExactly) {
  WorkStealingPool pool{4};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 300; ++i) {
    done.push_back(pool.submit([] {}));
  }
  for (auto& f : done) f.get();
  // A worker bumps its counters only after its job's future is ready, so
  // the counts are exact only once shutdown() has joined the workers.
  pool.shutdown();
  const WorkStealingPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.executed, 300u);
  ASSERT_EQ(stats.executed_by_worker.size(), 4u);
  ASSERT_EQ(stats.stolen_by_worker.size(), 4u);
  std::uint64_t executed_sum = 0;
  std::uint64_t stolen_sum = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    executed_sum += stats.executed_by_worker[w];
    stolen_sum += stats.stolen_by_worker[w];
  }
  EXPECT_EQ(executed_sum, stats.executed);
  EXPECT_EQ(stolen_sum, stats.stolen);
  EXPECT_LE(stats.stolen, stats.executed);
  // Every successful steal was an attempt; empty probes only add to
  // attempts.
  EXPECT_GE(stats.steal_attempts, stats.stolen);
}

TEST(WorkStealingPool, StealsFromABlockedWorkersDeque) {
  // One job camps on a worker while the round-robin keeps loading both
  // deques; the blocked worker's backlog is only drainable by theft.
  WorkStealingPool pool{2};
  std::atomic<int> counter{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = pool.submit([released] { released.wait(); });
  std::vector<std::future<void>> done;
  for (int i = 0; i < 20; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();  // completes while the blocker still holds its worker
  EXPECT_EQ(counter.load(), 20);
  EXPECT_GE(pool.stats().stolen, 1u);
  release.set_value();
  blocker.get();
}

TEST(WorkStealingPool, FifoFallbackMatchesSubmissionOrder) {
  // steal=false with one worker must degenerate to exactly ThreadPool's
  // FIFO; the steal-mode owner pop is front-first, so a single steal-mode
  // worker preserves the same order — the equivalence the service's
  // no-steal mode relies on.
  for (const bool steal : {false, true}) {
    WorkStealingPool::Options options;
    options.threads = 1;
    options.steal = steal;
    WorkStealingPool pool{options};
    EXPECT_EQ(pool.stealing_enabled(), steal);
    std::vector<int> order;
    std::vector<std::future<void>> done;
    for (int i = 0; i < 32; ++i) {
      done.push_back(pool.submit([&order, i] { order.push_back(i); }));
    }
    for (auto& f : done) f.get();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    if (!steal) {
      EXPECT_EQ(pool.stats().stolen, 0u);
    }
  }
}

TEST(WorkStealingPool, ExceptionsSurfaceThroughTheFuture) {
  WorkStealingPool pool{2};
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error{"target failed"}; });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(WorkStealingPool, DestructionDrainsPendingJobsInBothModes) {
  for (const bool steal : {true, false}) {
    std::atomic<int> counter{0};
    {
      WorkStealingPool::Options options;
      options.threads = 2;
      options.steal = steal;
      WorkStealingPool pool{options};
      for (int i = 0; i < 16; ++i) {
        pool.submit([&counter] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          counter.fetch_add(1);
        });
      }
    }  // ~WorkStealingPool joins only after every deque is empty
    EXPECT_EQ(counter.load(), 16);
  }
}

}  // namespace
}  // namespace reorder::util
