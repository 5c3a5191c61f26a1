#include "service/survey_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "report/sinks.hpp"
#include "util/fault_injector.hpp"

namespace reorder::service {

namespace {

/// The canonical merged-log order. (target, test, at) is a total order
/// over a survey's measurements: one target runs its tests strictly
/// sequentially, so two measurements of the same (target, test) never
/// share a timestamp.
bool canonical_less(const core::Measurement& a, const core::Measurement& b) {
  return std::tie(a.target, a.test, a.at) < std::tie(b.target, b.test, b.at);
}

}  // namespace

SurveyService::SurveyService(SurveyServiceConfig config)
    : config_{std::move(config)}, seeder_{config_.seed} {
  util::WorkStealingPool::Options pool_options;
  pool_options.threads = config_.workers;
  pool_options.steal = config_.steal;
  pool_ = std::make_unique<util::WorkStealingPool>(pool_options);
  slots_.reserve(pool_->size());
  for (std::size_t i = 0; i < pool_->size(); ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  if (!config_.checkpoint_path.empty()) {
    checkpoint_thread_ = std::thread{[this] { checkpoint_loop(); }};
  }
}

SurveyService::~SurveyService() {
  try {
    stop();
  } catch (...) {
    // A plan error surfacing in a destructor has nowhere to go; callers
    // that care drain()/stop() explicitly and observe it there.
  }
}

// ----------------------------------------------------------- admission

std::size_t SurveyService::admit(core::SurveyTargetConfig target) {
  std::optional<RestoredEntry> adopt;
  std::size_t index;
  {
    std::lock_guard lock{admission_mu_};
    index = admit_locked(std::move(target), std::nullopt, adopt);
  }
  if (adopt.has_value()) {
    complete_target(index, std::move(adopt->result), adopt->attempts, false);
  } else {
    submit_target(index);
  }
  return index;
}

std::size_t SurveyService::admit(core::SurveyTargetConfig target, std::size_t global_index) {
  std::optional<RestoredEntry> adopt;
  std::size_t index;
  {
    std::lock_guard lock{admission_mu_};
    index = admit_locked(std::move(target), global_index, adopt);
  }
  if (adopt.has_value()) {
    complete_target(index, std::move(adopt->result), adopt->attempts, false);
  } else {
    submit_target(index);
  }
  return index;
}

std::vector<std::size_t> SurveyService::admit(std::vector<core::SurveyTargetConfig> batch) {
  std::vector<std::size_t> indices;
  indices.reserve(batch.size());
  std::vector<std::pair<std::size_t, RestoredEntry>> adopted;
  std::vector<std::size_t> fresh;
  {
    std::lock_guard lock{admission_mu_};
    for (auto& target : batch) {
      std::optional<RestoredEntry> adopt;
      const std::size_t index = admit_locked(std::move(target), std::nullopt, adopt);
      indices.push_back(index);
      if (adopt.has_value()) {
        adopted.emplace_back(index, std::move(*adopt));
      } else {
        fresh.push_back(index);
      }
    }
  }
  for (auto& [index, entry] : adopted) {
    complete_target(index, std::move(entry.result), entry.attempts, false);
  }
  for (const std::size_t index : fresh) submit_target(index);
  return indices;
}

std::size_t SurveyService::admit_locked(core::SurveyTargetConfig target,
                                        std::optional<std::size_t> explicit_index,
                                        std::optional<RestoredEntry>& adopt) {
  if (stopped_) {
    throw std::logic_error{"SurveyService: admit after stop()"};
  }
  const std::size_t index = explicit_index.value_or(next_index_);
  if (targets_.count(index) != 0) {
    throw std::invalid_argument{"SurveyService: global index " + std::to_string(index) +
                                " already admitted"};
  }
  core::pin_target_identity(target, index, seeder_);

  // Fleet-wide identity collisions reject at admission: results are keyed
  // by name, so a duplicate would silently pool two streams, and a world
  // only sees its own targets, so an address collision must be caught
  // here or not at all.
  if (!names_.insert(target.name).second) {
    throw std::invalid_argument{"SurveyService: duplicate target name '" + target.name + "'"};
  }
  if (!addresses_.insert(target.address.value()).second) {
    names_.erase(target.name);
    throw std::invalid_argument{"SurveyService: duplicate target address " +
                                target.address.to_string()};
  }

  next_index_ = std::max(next_index_, index + 1);
  AdmittedTarget admitted;
  admitted.name = target.name;
  admitted.config = std::move(target);
  targets_.emplace(index, std::move(admitted));
  admitted_.fetch_add(1);
  results_dirty_ = true;

  if (auto it = restored_.find(index); it != restored_.end()) {
    adopt = std::move(it->second);
    restored_.erase(it);
    return index;
  }
  ++pending_;
  return index;
}

void SurveyService::submit_target(std::size_t index) {
  // The future is deliberately dropped: completion flows through the
  // slot/accounting path, and every exception class is caught inside
  // run_target (plan errors are parked for drain() to rethrow).
  pool_->submit([this, index] { run_target(index); });
}

void SurveyService::restore(const core::SurveyCheckpoint& checkpoint) {
  std::lock_guard lock{admission_mu_};
  if (!targets_.empty()) {
    throw std::logic_error{"SurveyService: restore() must precede the first admission"};
  }
  if (checkpoint.header().has_value()) {
    const core::SurveyCheckpoint::Header& h = *checkpoint.header();
    // shards == 0 marks the per-target record layout, the only one there
    // is; a header claiming shard-keyed records is not adoptable here.
    if (h.shards != 0 || h.rounds != config_.rounds || h.seed != config_.seed) {
      throw std::invalid_argument{
          "SurveyService::restore: checkpoint header does not match this service plan"};
    }
  }
  for (const std::size_t index : checkpoint.completed_shards()) {
    restored_.insert_or_assign(
        index, RestoredEntry{checkpoint.restore_shard(index), checkpoint.attempts(index)});
  }
}

// ----------------------------------------------------------- execution

void SurveyService::run_target(std::size_t index) {
  core::SurveyTargetConfig cfg;
  {
    std::lock_guard lock{admission_mu_};
    cfg = targets_.at(index).config;
  }

  // The global target index fills the shard slot of the fault-site
  // convention.
  util::FaultInjector* faults = config_.engine.faults;
  const std::string run_site = "shard/" + std::to_string(index) + "/run";
  const std::string abort_site = "shard/" + std::to_string(index) + "/abort";
  const int max_attempts = std::max(1, config_.retry.max_attempts);
  std::chrono::duration<double, std::milli> backoff = config_.retry.initial_backoff;

  std::string error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    bool transient = true;
    try {
      if (faults != nullptr) faults->maybe_throw(run_site, util::FaultInjector::Mode::kThrow);
      // One admitted target is one complete world of its own.
      core::SurveyEngine::Options options = config_.engine;
      options.retain_samples = config_.retain_results;
      core::ShardRunResult result = core::run_survey_world(
          core::SurveyTestbedConfig{config_.seed, config_.probe_addr, {cfg}}, options,
          config_.suite_factory, config_.run, config_.rounds, config_.between);
      result.shard = index;
      if (faults != nullptr) {
        faults->maybe_throw(abort_site, util::FaultInjector::Mode::kShardAbort);
      }
      complete_target(index, std::move(result), attempt, true);
      return;
    } catch (const util::InjectedFault& fault) {
      transient = fault.transient();
      error = fault.what();
    } catch (const std::invalid_argument& e) {
      // A broken survey PLAN — it would fail identically on every attempt,
      // and degrading would mask the typo. There is no run() to unwind, so
      // the error is parked and drain() rethrows.
      fail_target(index, attempt, e.what(), true);
      return;
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!transient || attempt == max_attempts) {
      fail_target(index, attempt, std::move(error), false);
      return;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * config_.retry.multiplier,
                       std::chrono::duration<double, std::milli>{config_.retry.max_backoff});
  }
}

void SurveyService::complete_target(std::size_t index, core::ShardRunResult result, int attempts,
                                    bool decrement_pending) {
  // Durability point first: the checkpoint record exists before the
  // result feeds any live view.
  if (!config_.checkpoint_path.empty()) {
    std::lock_guard lock{checkpoint_mu_};
    checkpoint_.record_shard(result, attempts);
    checkpoint_dirty_ = true;
  }

  const std::size_t measurements = result.log.size();
  const util::TimePoint virtual_end = result.end.at;
  Slot& slot = *slots_[index % slots_.size()];
  {
    std::lock_guard lock{slot.mu};
    slot.merged.merge(result.metrics);
    slot.measurements += measurements;
    slot.participants += result.end.targets;
    slot.max_end = std::max(slot.max_end, result.end.at);
    if (config_.retain_results) {
      slot.done.push_back(CompletedTarget{index, std::move(result.log), result.end});
    }
  }

  std::string name;
  {
    std::lock_guard lock{admission_mu_};
    AdmittedTarget& target = targets_.at(index);
    target.state = AdmittedTarget::State::kDone;
    // Adopted results carry attempts = 0 in the live accounting; the
    // checkpoint keeps the real history recorded above.
    target.attempts = decrement_pending ? attempts : 0;
    target.config = core::SurveyTargetConfig{};  // retire the world description
    name = target.name;
    results_dirty_ = true;
    completed_.fetch_add(1);
  }

  if (config_.on_target_complete) {
    TargetDone done;
    done.index = index;
    done.name = name;
    done.measurements = measurements;
    done.virtual_end = virtual_end;
    done.attempts = decrement_pending ? attempts : 0;
    config_.on_target_complete(done);
  }

  // The target counts as drained only now — state folded, counters
  // published, callback finished — so drain() returning means every
  // completion side effect has fully landed.
  if (decrement_pending) {
    std::lock_guard lock{admission_mu_};
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void SurveyService::fail_target(std::size_t index, int attempts, std::string error,
                                bool plan_error) {
  std::lock_guard lock{admission_mu_};
  AdmittedTarget& target = targets_.at(index);
  target.state = AdmittedTarget::State::kFailed;
  target.attempts = attempts;
  target.error = std::move(error);
  target.config = core::SurveyTargetConfig{};
  results_dirty_ = true;
  if (plan_error && !plan_error_) {
    plan_error_ = std::make_exception_ptr(std::invalid_argument{target.error});
  }
  failed_.fetch_add(1);
  if (--pending_ == 0) done_cv_.notify_all();
}

// ------------------------------------------------------------ live view

std::size_t SurveyService::in_flight() const {
  // Retired counters first: both only grow, and admitted >= completed +
  // failed is invariant under the admission lock, so this read order
  // keeps the difference non-negative for lock-free readers.
  const std::size_t retired = completed_.load() + failed_.load();
  const std::size_t admitted = admitted_.load();
  return admitted > retired ? admitted - retired : 0;
}

SurveyService::Snapshot SurveyService::snapshot() const {
  Snapshot snap;
  snap.completed = completed_.load();
  snap.failed = failed_.load();
  snap.admitted = admitted_.load();  // after the retired counters; see in_flight()
  snap.in_flight = snap.admitted - std::min(snap.admitted, snap.completed + snap.failed);
  snap.degraded = snap.failed > 0;
  snap.workers = pool_ ? pool_->size() : final_workers_;
  // Fold one slot at a time: a worker completing into slot K waits only
  // while K is copied; every other slot stays writable throughout.
  for (const auto& slot : slots_) {
    std::lock_guard lock{slot->mu};
    snap.metrics.merge(slot->merged);
    snap.measurements += slot->measurements;
    snap.virtual_end = std::max(snap.virtual_end, slot->max_end);
  }
  const util::WorkStealingPool::Stats stats = pool_ ? pool_->stats() : final_stats_;
  snap.jobs_executed = stats.executed;
  snap.steals = stats.stolen;
  snap.steal_attempts = stats.steal_attempts;
  return snap;
}

report::Json SurveyService::Snapshot::to_json() const {
  report::Json j = report::Json::object();
  j.set("type", "service_snapshot");
  j.set("admitted", report::Json::u64(admitted));
  j.set("completed", report::Json::u64(completed));
  j.set("failed", report::Json::u64(failed));
  j.set("in_flight", report::Json::u64(in_flight));
  j.set("measurements", report::Json::u64(measurements));
  j.set("virtual_end_ns", report::Json::u64(static_cast<std::uint64_t>(virtual_end.ns())));
  j.set("workers", report::Json::u64(workers));
  j.set("jobs_executed", report::Json::u64(jobs_executed));
  j.set("steals", report::Json::u64(steals));
  j.set("steal_attempts", report::Json::u64(steal_attempts));
  j.set("metric_keys", report::Json::u64(metrics.key_count()));
  j.set("degraded", degraded);
  return j;
}

// ------------------------------------------------------------- shutdown

void SurveyService::drain() {
  std::exception_ptr plan_error;
  {
    std::unique_lock lock{admission_mu_};
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    plan_error = plan_error_;
    plan_error_ = nullptr;
  }
  if (!config_.checkpoint_path.empty()) {
    std::lock_guard lock{checkpoint_mu_};
    save_checkpoint_locked();
    checkpoint_dirty_ = false;
  }
  if (plan_error) std::rethrow_exception(plan_error);
}

void SurveyService::stop() {
  {
    std::lock_guard lock{admission_mu_};
    stopped_ = true;
  }
  // Park the drain result until the machinery is down: stop() must retire
  // the workers even when the plan was broken.
  std::exception_ptr plan_error;
  try {
    drain();
  } catch (...) {
    plan_error = std::current_exception();
  }
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard lock{checkpoint_mu_};
      checkpoint_stop_ = true;
    }
    checkpoint_cv_.notify_all();
    checkpoint_thread_.join();
  }
  if (pool_) {
    // Join BEFORE caching stats: a worker bumps its executed counter
    // after the job returns, and drain() unblocks inside the job, so
    // stats read pre-join can lag by the in-flight increment.
    pool_->shutdown();
    final_workers_ = pool_->size();
    final_stats_ = pool_->stats();
    pool_.reset();
  }
  if (plan_error) std::rethrow_exception(plan_error);
}

// ------------------------------------------------------ merged results

std::unique_lock<std::mutex> SurveyService::finalized() {
  std::unique_lock lock{admission_mu_};
  if (pending_ != 0) {
    throw std::logic_error{"SurveyService: results are available once drained"};
  }
  finalize_locked();
  return lock;
}

void SurveyService::finalize_locked() {
  if (!results_dirty_) return;
  merged_log_.clear();
  merged_ = metrics::MetricEngine{};
  merged_end_ = core::SurveyEvent{};
  failed_indices_.clear();
  failure_messages_.clear();

  std::size_t total_measurements = 0;
  std::size_t retained = 0;
  for (const auto& slot : slots_) {
    std::lock_guard lock{slot->mu};
    merged_.merge(slot->merged);
    merged_end_.targets += slot->participants;
    merged_end_.at = std::max(merged_end_.at, slot->max_end);
    total_measurements += slot->measurements;
    for (const CompletedTarget& done : slot->done) retained += done.log.size();
  }
  // The merged log is rebuilt by COPY, not move: the slots stay the
  // owners so admissions after this drain fold incrementally and the next
  // finalize starts from the same complete data.
  merged_log_.reserve(retained);
  for (const auto& slot : slots_) {
    std::lock_guard lock{slot->mu};
    for (const CompletedTarget& done : slot->done) {
      merged_log_.insert(merged_log_.end(), done.log.begin(), done.log.end());
    }
  }
  std::sort(merged_log_.begin(), merged_log_.end(), canonical_less);
  merged_end_.rounds = config_.rounds;
  merged_end_.measurements = total_measurements;

  // Failure accounting in global-index order (one world per target, so
  // failed_shards counts failed targets).
  for (const auto& [index, target] : targets_) {
    if (target.state != AdmittedTarget::State::kFailed) continue;
    merged_end_.degraded = true;
    ++merged_end_.failed_shards;
    merged_end_.failed_targets.push_back(target.name);
    failed_indices_.push_back(index);
    failure_messages_.push_back(target.error);
  }
  results_dirty_ = false;
}

const std::vector<core::Measurement>& SurveyService::measurements() {
  auto lock = finalized();
  if (!config_.retain_results) {
    throw std::logic_error{"SurveyService: measurements() needs retain_results"};
  }
  return merged_log_;
}

const metrics::MetricEngine& SurveyService::metrics() {
  auto lock = finalized();
  return merged_;
}

const core::SurveyEvent& SurveyService::survey_end() {
  auto lock = finalized();
  return merged_end_;
}

void SurveyService::emit_jsonl(report::JsonlWriter& out) {
  auto lock = finalized();
  if (!config_.retain_results) {
    throw std::logic_error{"SurveyService: emit_jsonl() needs retain_results"};
  }
  report::JsonlResultSink sink{out};
  sink.on_survey_begin(
      core::SurveyEvent{merged_end_.targets, config_.rounds, 0, util::TimePoint::epoch()});
  for (std::size_t i = 0; i < merged_log_.size(); ++i) {
    const core::Measurement& m = merged_log_[i];
    core::publish_result(sink, m.target, m.test, m.at, m.result, i);
  }
  sink.on_survey_end(merged_end_);
  merged_.emit_jsonl(out, metrics::MetricEngine::EmitOrder::kCanonical);
  // A degraded survey's stream ends with the participation manifest, so a
  // consumer of the merged metrics can reconcile the whole fleet without
  // the survey_end record. Absent on clean runs.
  if (merged_end_.degraded) {
    report::Json manifest = report::Json::object();
    manifest.set("type", "participation");
    report::Json targets = report::Json::array();
    for (const auto& [index, target] : targets_) {
      report::Json t = report::Json::object();
      t.set("target", target.name);
      t.set("participated", target.state != AdmittedTarget::State::kFailed);
      targets.push(std::move(t));
    }
    manifest.set("targets", std::move(targets));
    out.write(manifest);
  }
}

// ------------------------------------------------- failure accounting

bool SurveyService::degraded() {
  auto lock = finalized();
  return merged_end_.degraded;
}

const std::vector<std::size_t>& SurveyService::failed_target_indices() {
  auto lock = finalized();
  return failed_indices_;
}

const std::vector<std::string>& SurveyService::failure_messages() {
  auto lock = finalized();
  return failure_messages_;
}

int SurveyService::attempts(std::size_t index) const {
  std::lock_guard lock{admission_mu_};
  return targets_.at(index).attempts;
}

std::vector<std::pair<std::string, bool>> SurveyService::participation() {
  auto lock = finalized();
  std::vector<std::pair<std::string, bool>> out;
  out.reserve(targets_.size());
  for (const auto& [index, target] : targets_) {
    out.emplace_back(target.name, target.state != AdmittedTarget::State::kFailed);
  }
  return out;
}

// ----------------------------------------------------------- checkpoint

void SurveyService::checkpoint_loop() {
  std::unique_lock lock{checkpoint_mu_};
  for (;;) {
    checkpoint_cv_.wait_for(lock, config_.checkpoint_interval,
                            [&] { return checkpoint_stop_; });
    if (checkpoint_dirty_) {
      save_checkpoint_locked();
      checkpoint_dirty_ = false;
    }
    if (checkpoint_stop_) return;
  }
}

void SurveyService::save_checkpoint_locked() {
  // Header written fresh every save: `targets` tracks admissions, and
  // shards == 0 marks the per-target (service) record granularity.
  checkpoint_.set_header(core::SurveyCheckpoint::Header{
      0, admitted_.load(), config_.rounds, config_.seed});
  checkpoint_.save(config_.checkpoint_path);
}

}  // namespace reorder::service
