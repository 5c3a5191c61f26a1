#include "util/work_stealing_pool.hpp"

#include <algorithm>

#include "util/shard_seeder.hpp"

namespace reorder::util {

std::size_t WorkStealingPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkStealingPool::WorkStealingPool(Options options) : options_{options} {
  const std::size_t n = options_.threads != 0 ? options_.threads : hardware_threads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->rng = splitmix64(options_.seed + i);
    workers_.push_back(std::move(worker));
  }
  // Spawn only after every Worker exists: thieves index the whole vector.
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread{[this, i] {
      if (options_.steal) {
        worker_loop(i);
      } else {
        worker_loop_no_steal(*workers_[i]);
      }
    }};
  }
}

WorkStealingPool::~WorkStealingPool() { shutdown(); }

void WorkStealingPool::shutdown() {
  {
    // The epoch mutex doubles as the stop signal's fence in steal mode;
    // in no-steal mode each worker checks stopping_ under its own mutex,
    // so notify every per-worker cv as well.
    std::lock_guard lock{sleep_mu_};
    stopping_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    std::lock_guard lock{w->mu};
  }
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::future<void> WorkStealingPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task{std::move(job)};
  std::future<void> result = task.get_future();
  Worker& target = *workers_[next_.fetch_add(1, std::memory_order_relaxed) % workers_.size()];
  {
    std::lock_guard lock{target.mu};
    target.jobs.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (options_.steal) {
    {
      std::lock_guard lock{sleep_mu_};
      ++epoch_;
    }
    sleep_cv_.notify_all();
  } else {
    target.cv.notify_one();
  }
  return result;
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.executed_by_worker.reserve(workers_.size());
  out.stolen_by_worker.reserve(workers_.size());
  for (const auto& w : workers_) {
    const std::uint64_t executed = w->executed.load(std::memory_order_relaxed);
    const std::uint64_t stolen = w->stolen.load(std::memory_order_relaxed);
    out.executed += executed;
    out.stolen += stolen;
    out.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    out.executed_by_worker.push_back(executed);
    out.stolen_by_worker.push_back(stolen);
  }
  return out;
}

bool WorkStealingPool::try_pop_own(Worker& self, std::packaged_task<void()>& out) {
  std::lock_guard lock{self.mu};
  if (self.jobs.empty()) return false;
  out = std::move(self.jobs.front());  // FIFO from the owner's end
  self.jobs.pop_front();
  queued_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool WorkStealingPool::try_steal(std::size_t thief, std::packaged_task<void()>& out) {
  Worker& self = *workers_[thief];
  const std::size_t n = workers_.size();
  if (n == 1) return false;
  // One full random-start sweep over the victims. Splitmix64 keeps
  // successive sweeps decorrelated; the stream only shapes load balance.
  self.rng = splitmix64(self.rng);
  const std::size_t start = static_cast<std::size_t>(self.rng % n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == thief) continue;
    Worker& victim = *workers_[v];
    self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock{victim.mu};
    if (victim.jobs.empty()) continue;
    out = std::move(victim.jobs.back());  // opposite end from the owner
    victim.jobs.pop_back();
    queued_.fetch_sub(1, std::memory_order_release);
    self.stolen.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t index) {
  Worker& self = *workers_[index];
  for (;;) {
    // Read the epoch BEFORE scanning: a submission racing the scan bumps
    // it, so the empty-handed wait below falls straight through and the
    // scan reruns — a job pushed to any deque can never be slept past.
    std::uint64_t seen;
    {
      std::lock_guard lock{sleep_mu_};
      seen = epoch_;
    }
    std::packaged_task<void()> task;
    if (try_pop_own(self, task) || try_steal(index, task)) {
      task();  // exceptions land in the packaged_task's future
      self.executed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain guarantee: with stealing, any worker can run any job, so
      // exit only once nothing is queued anywhere. A job that a sibling
      // popped concurrently is that sibling's to finish.
      if (queued_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock{sleep_mu_};
    sleep_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) || epoch_ != seen;
    });
  }
}

void WorkStealingPool::worker_loop_no_steal(Worker& self) {
  // The FIFO fallback: one mutex-guarded queue per worker, no theft.
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock{self.mu};
      self.cv.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) || !self.jobs.empty();
      });
      if (self.jobs.empty()) return;  // stopping and drained
      task = std::move(self.jobs.front());
      self.jobs.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
    }
    task();
    self.executed.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace reorder::util
