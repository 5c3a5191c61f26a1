// The survey service — the paper's §IV fleet survey as an always-on
// daemon, and the one runtime every survey runs on. A batch survey is
// admit(all); drain().
//
// Targets are ADMITTED continuously — one at a time or in batches, from
// any thread — and each admission is assigned a GLOBAL IDENTITY INDEX.
// Identity is everything: core::pin_target_identity derives the target's
// whole stochastic world (host RNG, IPID origin, path tags) from
// (service seed, global index), so a target's results are byte-identical
// no matter WHEN it was admitted, WHICH worker ran it, or what else was
// in flight — and therefore identical to the whole fleet run as one world
// on one event loop (the placement/admission-order invariance property
// tests pin this against that single-world reference).
//
// Scheduling is a work-stealing deque pool (util::WorkStealingPool): each
// admitted target is its own world (core::run_survey_world), admissions
// round-robin onto per-worker deques purely as a load hint, and idle
// workers steal from random victims. Only identity is index-derived;
// placement is free, which is what lets a fleet of wildly uneven targets
// keep every core busy. Steal counters surface in snapshots.
//
// Live view: snapshot() folds the per-worker MetricEngine accumulators
// through the metrics merge() contract into a fleet-wide engine MID-RUN,
// without stopping admission — the per-slot locks are held only while
// one slot's accumulator is copied. drain() waits for quiescence;
// stop() additionally retires the workers. After drain, emit_jsonl()
// produces the canonical JSONL stream: completion logs sorted by
// (target, test, at), indices renumbered in that order, so the schedule
// cannot leak into a byte of output.
//
// Fault tolerance: every completed target is recorded into a
// core::SurveyCheckpoint (saved atomically by a background thread every
// checkpoint_interval), restore() adopts a prior run's completed targets
// so only the missing ones re-run, and ShardRetryPolicy retries transient
// per-target failures with backoff — exhaustion degrades the survey
// (full-fleet accounting) instead of aborting it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/survey_engine.hpp"
#include "core/survey_testbed.hpp"
#include "core/survey_world.hpp"
#include "metrics/engine.hpp"
#include "report/jsonl.hpp"
#include "util/shard_seeder.hpp"
#include "util/work_stealing_pool.hpp"

namespace reorder::service {

/// Failure policy for one target's world: how often a failed run is
/// re-attempted and how the waits between attempts grow. Retries apply
/// only to TRANSIENT failures (infrastructure: a worker died, an injected
/// kThrow/kShardAbort with transient=true); deterministic failures
/// (std::invalid_argument, non-transient injected faults) would fail
/// identically every attempt and go straight to the degraded path.
struct ShardRetryPolicy {
  /// Attempts per target including the first (clamped to >= 1). A target
  /// still failing after the last attempt makes the survey degraded.
  int max_attempts{3};
  /// Wall-clock wait before attempt 2; grows by `multiplier` per further
  /// attempt, capped at `max_backoff`. Wall time, not virtual time: the
  /// world is rebuilt from scratch each attempt, so virtual time restarts
  /// — only the host needs breathing room.
  std::chrono::milliseconds initial_backoff{1};
  double multiplier{2.0};
  std::chrono::milliseconds max_backoff{50};
};

/// Completion notification (config.on_target_complete), fired on the
/// worker thread that finished the target, outside service locks.
struct TargetDone {
  std::size_t index{0};
  std::string_view name;
  /// Measurements this target contributed.
  std::size_t measurements{0};
  /// The target's final virtual instant.
  util::TimePoint virtual_end{};
  /// Attempts consumed (1 = first try; 0 = adopted from a checkpoint).
  int attempts{1};
};

struct SurveyServiceConfig {
  /// Survey seed: with the same seed, rounds and run config, the same
  /// fleet reproduces bit-exactly whatever the workers, batches and
  /// admission order.
  std::uint64_t seed{1};
  tcpip::Ipv4Address probe_addr{tcpip::Ipv4Address::from_octets(10, 0, 0, 1)};
  /// Worker threads; 0 picks hardware concurrency.
  std::size_t workers{0};
  /// Work stealing on (default) or the per-worker FIFO fallback. Results
  /// are identical either way — only load balance differs.
  bool steal{true};
  /// The survey plan every admitted target runs, fixed at construction.
  core::TestRunConfig run{};
  int rounds{1};
  util::Duration between{util::Duration::seconds(1)};
  /// Per-world engine options (retain_samples is derived from
  /// retain_results; faults passes the injector through to every world).
  core::SurveyEngine::Options engine{};
  /// Per-world metric suite factory; null uses metrics::default_suite.
  metrics::SuiteFactory suite_factory{};
  /// Transient-failure retry policy per target (see ShardRetryPolicy).
  ShardRetryPolicy retry{};
  /// When non-empty, completed targets are durably recorded here: a
  /// core::SurveyCheckpoint file (shard index == global target index,
  /// header.shards == 0 as the service marker), rewritten atomically by
  /// a background thread whenever completions accumulated.
  std::string checkpoint_path{};
  /// Background checkpoint cadence (wall clock).
  std::chrono::milliseconds checkpoint_interval{200};
  /// Keep per-measurement logs (with sample payloads) for canonical
  /// emission. Turn off for huge fleets: metrics, counters and
  /// snapshots stay exact, but emit_jsonl()/measurements() are
  /// unavailable — the 1M-target smoke runs this way.
  bool retain_results{true};
  /// Completion callback (worker thread, outside locks). Keep it cheap.
  std::function<void(const TargetDone&)> on_target_complete{};
};

class SurveyService {
 public:
  explicit SurveyService(SurveyServiceConfig config);
  /// stop()s if the caller did not (plan errors are swallowed — call
  /// drain()/stop() yourself to observe them).
  ~SurveyService();

  SurveyService(const SurveyService&) = delete;
  SurveyService& operator=(const SurveyService&) = delete;

  // -------------------------------------------------------- admission
  /// Admits one target at the next free global index and returns that
  /// index. Unset identity fields (name, address, seeds) are pinned from
  /// the index by core::pin_target_identity.
  /// Thread-safe; throws std::invalid_argument on duplicate name or
  /// address (fleet-wide), std::logic_error after stop().
  std::size_t admit(core::SurveyTargetConfig target);
  /// Admits one target AT a caller-chosen global index — the admission-
  /// order-invariant form: a fleet admitted in any order with explicit
  /// indices produces byte-identical output. Throws std::invalid_argument
  /// when the index is already taken.
  std::size_t admit(core::SurveyTargetConfig target, std::size_t global_index);
  /// Batched admission at consecutive next-free indices.
  std::vector<std::size_t> admit(std::vector<core::SurveyTargetConfig> batch);

  /// Adopts a prior run's completed targets from a checkpoint: when a
  /// matching global index is admitted, its recorded result is folded in
  /// instead of re-running the world. Must be called before the first
  /// admission; throws std::invalid_argument when the checkpoint header
  /// disagrees with this service's plan (shards != 0 marker, rounds,
  /// seed).
  void restore(const core::SurveyCheckpoint& checkpoint);

  // -------------------------------------------------------- live view
  std::size_t admitted() const { return admitted_.load(); }
  std::size_t completed() const { return completed_.load(); }
  std::size_t failed() const { return failed_.load(); }
  /// Admitted but not yet completed or failed (momentary).
  std::size_t in_flight() const;

  /// A live fleet-wide view taken MID-RUN without stopping admission:
  /// per-worker accumulator slots are folded one at a time through the
  /// metrics merge() contract (each slot's lock held only while that
  /// slot is copied), so workers are never globally stalled. Counters
  /// are per-slot-consistent, not a global barrier.
  struct Snapshot {
    std::size_t admitted{0};
    std::size_t completed{0};
    std::size_t failed{0};
    std::size_t in_flight{0};
    std::size_t measurements{0};
    /// Max final virtual instant over completed targets.
    util::TimePoint virtual_end{};
    std::size_t workers{0};
    /// Scheduler counters (see WorkStealingPool::Stats).
    std::uint64_t jobs_executed{0};
    std::uint64_t steals{0};
    std::uint64_t steal_attempts{0};
    bool degraded{false};
    /// The merged metric engine (deep copy; snapshot-owned).
    metrics::MetricEngine metrics;

    /// The {"type":"service_snapshot",...} record (counters only — the
    /// merged metrics stay queryable on the snapshot object; emit them
    /// separately via metrics.emit_jsonl when wanted).
    report::Json to_json() const;
  };
  Snapshot snapshot() const;

  /// Scheduler counters alone (no metric fold — always cheap). After
  /// stop() this returns the final counters the retired pool reported.
  util::WorkStealingPool::Stats scheduler_stats() const {
    return pool_ ? pool_->stats() : final_stats_;
  }

  // ---------------------------------------------------------- shutdown
  /// Blocks until every target admitted so far completed or failed, then
  /// durably saves the checkpoint (when enabled) and rethrows the first
  /// plan error (std::invalid_argument — a typo'd survey must not
  /// degrade silently). Admission stays open afterwards: a resident
  /// caller may keep admitting and drain again.
  void drain();
  /// drain(), then retires the workers and the checkpoint thread.
  /// Further admissions throw; results stay readable.
  void stop();

  // ------------------------------------- merged results (quiescent API)
  // Callable once drained (throw std::logic_error while targets are in
  // flight). Outputs are canonical: a pure function of the admitted fleet,
  // seed and plan.
  /// The merged completion log in canonical (target, test, at) order.
  /// Needs retain_results.
  const std::vector<core::Measurement>& measurements();
  /// The merged metric engine.
  const metrics::MetricEngine& metrics();
  /// The merged survey_end marker (participants, fleet-wide virtual end,
  /// degraded accounting).
  const core::SurveyEvent& survey_end();

  /// The canonical merged JSONL stream: survey_begin, every measurement's
  /// samples + measurement records with canonically renumbered indices,
  /// survey_end, one metrics record per key in canonical order, plus the
  /// participation manifest when degraded. Needs retain_results.
  void emit_jsonl(report::JsonlWriter& out);

  // ------------------------------------------------ failure accounting
  bool degraded();
  /// Global indices of targets that exhausted every attempt, ascending.
  const std::vector<std::size_t>& failed_target_indices();
  /// Last-attempt failure message per failed target (parallel to
  /// failed_target_indices()).
  const std::vector<std::string>& failure_messages();
  /// Attempts consumed by target `index` (0 = adopted from checkpoint).
  int attempts(std::size_t index) const;
  /// Every admitted target in global-index order with whether its
  /// measurements are present — the degraded-run reconciliation manifest.
  std::vector<std::pair<std::string, bool>> participation();

 private:
  struct AdmittedTarget {
    std::string name;
    /// The pinned world description; released after completion (the
    /// resident service would otherwise hold every retired target's
    /// config forever).
    core::SurveyTargetConfig config;
    enum class State { kPending, kDone, kFailed } state{State::kPending};
    int attempts{0};
    std::string error;
  };

  struct CompletedTarget {
    std::size_t index{0};
    std::vector<core::Measurement> log;
    core::SurveyEvent end{};
  };

  /// One per worker: completions land in slot (index % slots), so a
  /// snapshot never locks more than one worker's accumulator at a time.
  struct Slot {
    mutable std::mutex mu;
    metrics::MetricEngine merged;
    std::vector<CompletedTarget> done;
    std::size_t measurements{0};
    std::size_t participants{0};
    util::TimePoint max_end{};
  };

  struct RestoredEntry {
    core::ShardRunResult result;
    int attempts{1};
  };

  std::size_t admit_locked(core::SurveyTargetConfig target,
                           std::optional<std::size_t> explicit_index,
                           std::optional<RestoredEntry>& adopt);
  void submit_target(std::size_t index);
  void run_target(std::size_t index);
  void complete_target(std::size_t index, core::ShardRunResult result, int attempts,
                       bool decrement_pending);
  void fail_target(std::size_t index, int attempts, std::string error, bool plan_error);
  /// Rebuilds the merged results cache; caller holds admission_mu_ and
  /// has verified pending_ == 0.
  void finalize_locked();
  /// Locks, requires quiescence, finalizes.
  std::unique_lock<std::mutex> finalized();
  void checkpoint_loop();
  void save_checkpoint_locked();

  SurveyServiceConfig config_;
  util::ShardSeeder seeder_;
  std::unique_ptr<util::WorkStealingPool> pool_;
  /// Scheduler identity/counters preserved across stop() (pool retired).
  std::size_t final_workers_{0};
  util::WorkStealingPool::Stats final_stats_{};
  std::vector<std::unique_ptr<Slot>> slots_;

  // ---- admission state (admission_mu_)
  mutable std::mutex admission_mu_;
  std::condition_variable done_cv_;
  std::map<std::size_t, AdmittedTarget> targets_;
  std::set<std::string> names_;
  std::set<std::uint32_t> addresses_;
  std::map<std::size_t, RestoredEntry> restored_;
  std::size_t next_index_{0};
  std::size_t pending_{0};
  bool stopped_{false};
  std::exception_ptr plan_error_;

  // ---- lock-free counters for the live view
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};

  // ---- merged results cache (admission_mu_; valid while !results_dirty_)
  bool results_dirty_{true};
  std::vector<core::Measurement> merged_log_;
  metrics::MetricEngine merged_;
  core::SurveyEvent merged_end_{};
  std::vector<std::size_t> failed_indices_;
  std::vector<std::string> failure_messages_;

  // ---- checkpoint state (checkpoint_mu_)
  std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  core::SurveyCheckpoint checkpoint_;
  bool checkpoint_dirty_{false};
  bool checkpoint_stop_{false};
  std::thread checkpoint_thread_;
};

}  // namespace reorder::service
