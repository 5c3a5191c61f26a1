// The two survey-service workloads: survey-lean (3 workers, no logs, no
// checkpoint — simulation and scheduling are the work) and survey-durable
// (2 workers plus the background checkpoint thread, retained logs,
// canonical JSONL after drain — persistence is the work). The main thread
// only admits and then blocks in drain(), so neither runs more than 3
// busy threads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/survey_testbed.hpp"
#include "report/jsonl.hpp"
#include "service/survey_service.hpp"
#include "util/fault_injector.hpp"

namespace perfbench {
namespace {

using reorder::core::SurveyCheckpoint;
using reorder::core::SurveyTargetConfig;
using reorder::service::SurveyService;
using reorder::service::SurveyServiceConfig;
using reorder::util::fnv1a64;

constexpr std::size_t kAdmitBatch = 64;

struct Shape {
  const char* name;
  std::size_t workers;
  bool durable;  ///< retained logs + checkpoint + JSONL emission
  std::size_t targets;
  std::size_t tiny_targets;
};

/// The population of examples/survey_service.cpp, drawn from the
/// benchmark's own generator: half the paths reorder, with a forward swap
/// probability ~Exp(mean 0.08) capped at 0.35 and a reverse one 10-60% of
/// it; every target runs single-connection then syn.
std::vector<SurveyTargetConfig> population(std::uint64_t seed, std::size_t targets) {
  Rng rng{mix64(seed ^ 0x5e27e1ULL)};
  std::vector<SurveyTargetConfig> out;
  out.reserve(targets);
  for (std::size_t i = 0; i < targets; ++i) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    if (rng.bernoulli(0.5)) {
      const double fwd = std::min(0.35, -0.08 * std::log(1.0 - rng.uniform()));
      target.forward.swap_probability = fwd;
      target.reverse.swap_probability = fwd * (0.1 + 0.5 * rng.uniform());
    }
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {reorder::core::TestSpec{"single-connection"},
                    reorder::core::TestSpec{"syn"}};
    out.push_back(std::move(target));
  }
  return out;
}

SurveyServiceConfig service_config(std::uint64_t seed, std::size_t workers, bool retain,
                                   std::string checkpoint_path) {
  SurveyServiceConfig cfg;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.run.samples = 15;
  cfg.rounds = 1;
  cfg.retain_results = retain;
  cfg.checkpoint_path = std::move(checkpoint_path);
  // No timed save inside a pass: the pass's rewrites are the two that
  // drain() and stop() make. At the default 200 ms cadence the number of
  // rewrites per pass follows the wall clock, so a pass the host slowed
  // did more checkpoint work, and a pass's CPU time swung with it.
  cfg.checkpoint_interval = std::chrono::hours{1};
  return cfg;
}

std::string canonical_metrics(SurveyService& svc) {
  std::ostringstream s;
  reorder::report::JsonlWriter w{s};
  svc.metrics().emit_jsonl(w, reorder::metrics::MetricEngine::EmitOrder::kCanonical);
  return s.str();
}

struct PassRecord {
  double seconds{0.0};
  double peak_rss_mb{0.0};
  double cpu_s{0.0};  ///< process CPU seconds over the timed span
  std::size_t admitted{0};
  std::size_t completed{0};
  std::size_t failed{0};
  std::uint64_t steals{0};
  std::uint64_t steal_attempts{0};
  std::uint64_t metrics_hash{0};
  std::uint64_t jsonl_hash{0};
};
static_assert(std::is_trivially_copyable_v<PassRecord>);

/// Traced passes sample snapshot() from the main thread every 50 ms until
/// every admitted target has completed or failed; drain() then returns at
/// once. Polling in 2 ms steps keeps the added drain latency small.
void sample_snapshots(const SurveyService& svc) {
  constexpr std::int64_t kEveryNs = 50'000'000;
  std::int64_t next = now_ns() + kEveryNs;
  while (svc.completed() + svc.failed() < svc.admitted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (now_ns() < next) continue;
    ScopedSpan span{"service.snapshot"};
    (void)svc.snapshot();
    next = now_ns() + kEveryNs;
  }
}

class SurveyRun {
 public:
  SurveyRun(const Options& opt, const Shape& shape)
      : opt_{opt},
        shape_{shape},
        checkpoint_path_{opt.out_dir + "/" + shape.name + ".ckpt"},
        jsonl_path_{opt.out_dir + "/" + shape.name + ".jsonl"} {}

  const std::string& checkpoint_path() const { return checkpoint_path_; }
  const std::string& jsonl_path() const { return jsonl_path_; }

  /// One pass, in a child forked from this process: every pass starts from
  /// the same process state. In one process the passes drift, and the
  /// worlds leak a little memory per single-connection measurement: over a
  /// 6 s survey-lean run the rate fell from 5.8k to 4.6k targets per CPU
  /// second in 13 passes. The child's spans come back to this process's
  /// tracer.
  PassRecord pass(const std::vector<SurveyTargetConfig>& fleet) {
    const bool traced = Tracer::instance().enabled();
    const std::string out = run_in_child([&] {
      Tracer::instance().clear();
      reset_peak_rss();
      PassRecord rec = pass_here(fleet);
      rec.peak_rss_mb = peak_rss_mb();
      std::string bytes(reinterpret_cast<const char*>(&rec), sizeof rec);
      if (traced) {
        const std::vector<Span> spans = Tracer::instance().spans();
        bytes.append(reinterpret_cast<const char*>(spans.data()), spans.size() * sizeof(Span));
      }
      return bytes;
    });
    if (out.size() < sizeof(PassRecord) || (out.size() - sizeof(PassRecord)) % sizeof(Span) != 0) {
      throw std::runtime_error{"a survey pass returned a malformed record"};
    }
    PassRecord rec;
    std::memcpy(&rec, out.data(), sizeof rec);
    std::vector<Span> spans((out.size() - sizeof rec) / sizeof(Span));
    std::memcpy(static_cast<void*>(spans.data()), out.data() + sizeof rec, out.size() - sizeof rec);
    Tracer::instance().import(spans);
    return rec;
  }

 private:
  /// One pass in this process: a fresh service, the whole fleet admitted in
  /// batches, and drain(); on durable also the canonical JSONL file and
  /// stop() (the final durable save). Construction is outside the clock.
  PassRecord pass_here(const std::vector<SurveyTargetConfig>& fleet) {
    ScopedSpan pass_span{"pass"};
    if (shape_.durable) {
      std::filesystem::remove(checkpoint_path_);
      std::filesystem::remove(jsonl_path_);
    }
    std::vector<std::vector<SurveyTargetConfig>> batches;
    for (std::size_t i = 0; i < fleet.size(); i += kAdmitBatch) {
      batches.emplace_back(fleet.begin() + static_cast<std::ptrdiff_t>(i),
                           fleet.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(fleet.size(), i + kAdmitBatch)));
    }
    std::optional<SurveyService> svc;
    {
      ScopedSpan span{"service.construct"};
      svc.emplace(service_config(opt_.seed, shape_.workers, shape_.durable,
                                 shape_.durable ? checkpoint_path_ : std::string{}));
    }
    PassRecord rec;
    const std::int64_t start = now_ns();
    const double cpu0 = process_cpu_s();
    for (auto& batch : batches) {
      ScopedSpan span{"service.admit"};
      svc->admit(std::move(batch));
    }
    {
      ScopedSpan span{"service.drain"};
      if (Tracer::instance().enabled()) sample_snapshots(*svc);
      svc->drain();
    }
    const reorder::util::WorkStealingPool::Stats sched = svc->scheduler_stats();
    if (shape_.durable) {
      {
        ScopedSpan span{"service.finalize"};
        (void)svc->metrics();
      }
      {
        ScopedSpan span{"report.emit"};
        reorder::report::AtomicJsonlFile file{jsonl_path_};
        svc->emit_jsonl(file.writer());
        file.commit();
      }
      {
        ScopedSpan span{"service.stop"};
        svc->stop();
      }
      rec.seconds = wall_s_since(start);
      rec.cpu_s = process_cpu_s() - cpu0;
    } else {
      rec.seconds = wall_s_since(start);
      rec.cpu_s = process_cpu_s() - cpu0;
      {
        ScopedSpan span{"service.finalize"};
        (void)svc->metrics();
      }
      ScopedSpan span{"service.stop"};
      svc->stop();
    }
    rec.admitted = svc->admitted();
    rec.completed = svc->completed();
    rec.failed = svc->failed();
    rec.steals = sched.stolen;
    rec.steal_attempts = sched.steal_attempts;
    rec.metrics_hash = fnv1a64(canonical_metrics(*svc));
    if (shape_.durable) rec.jsonl_hash = fnv1a64(read_file(jsonl_path_));
    return rec;
  }

  const Options& opt_;
  const Shape& shape_;
  std::string checkpoint_path_;
  std::string jsonl_path_;
};

Outcome run_survey(const Options& opt, const Shape& shape) {
  Outcome out;
  Tracer& tracer = Tracer::instance();
  const std::size_t targets = opt.tiny ? shape.tiny_targets : shape.targets;
  SurveyRun run{opt, shape};

  // ---- set-up: the population, then one warm-up pass (which constructs
  // its own service), timed in fresh processes, then done once more here
  // for the timed phase.
  std::vector<SurveyTargetConfig> fleet;
  const auto set_up = [&] {
    fleet = population(opt.seed, targets);
    // Self-test corruption: the service never sees the last target.
    if (opt.corrupt) fleet.pop_back();
    run.pass(fleet);
  };
  out.setup_s = forked_setup_s(set_up);
  set_up();

  const auto cpu_rates = [&](const std::vector<PassRecord>& records) {
    std::vector<double> r;
    for (const PassRecord& p : records) r.push_back(static_cast<double>(p.admitted) / p.cpu_s);
    return r;
  };
  const auto wall_rates = [&](const std::vector<PassRecord>& records) {
    std::vector<double> r;
    for (const PassRecord& p : records) r.push_back(static_cast<double>(p.admitted) / p.seconds);
    return r;
  };

  // ---- timed phase (untraced).
  std::vector<PassRecord> untraced;
  run_passes(opt.trace ? opt.seconds / 2 : opt.seconds,
             [&] { untraced.push_back(run.pass(fleet)); });
  out.throughput_per_s = median(cpu_rates(untraced));
  std::vector<double> rss;
  for (const PassRecord& p : untraced) rss.push_back(p.peak_rss_mb);
  out.peak_rss_mb = median(rss);
  std::fprintf(stderr,
               "%s: per-pass targets per CPU second q1 %.6g, median %.6g, q3 %.6g; "
               "per wall second median %.6g; %zu passes\n",
               shape.name, quantile(cpu_rates(untraced), 0.25), out.throughput_per_s,
               quantile(cpu_rates(untraced), 0.75), median(wall_rates(untraced)),
               untraced.size());

  // ---- traced phase and single-layer probes.
  std::vector<PassRecord> traced;
  if (opt.trace) {
    tracer.set_enabled(true);
    run_passes(opt.seconds / 2, [&] { traced.push_back(run.pass(fleet)); });
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.spans();
    const auto per_pass = [&](const char* name) {
      return per_pass_seconds(spans, "pass", name);
    };

    std::vector<double> snapshot_ms;
    for (const double s : durations(spans, "service.snapshot")) snapshot_ms.push_back(s * 1e3);
    std::vector<double> steals;
    double stolen = 0, attempts = 0;
    for (const PassRecord& p : traced) {
      steals.push_back(static_cast<double>(p.steals));
      stolen += static_cast<double>(p.steals);
      attempts += static_cast<double>(p.steal_attempts);
    }

    // Per-target world cost: single targets admitted and drained one at a
    // time on a one-worker service, so each figure is one world alone.
    std::vector<double> world_ms;
    {
      SurveyService solo{service_config(opt.seed, 1, false, {})};
      const std::size_t n = std::min<std::size_t>(fleet.size(), opt.tiny ? 8 : 256);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t start = now_ns();
        solo.admit(fleet[i]);
        solo.drain();
        world_ms.push_back(wall_s_since(start) * 1e3);
      }
      solo.stop();
    }

    auto& L = out.layer;
    L["service.construct_s"] = median(per_pass("service.construct"));
    L["service.admit_s"] = median(per_pass("service.admit"));
    L["service.drain_s"] = median(per_pass("service.drain"));
    L["service.snapshot_ms_p50"] = quantile(snapshot_ms, 0.5);
    L["service.snapshot_ms_p99"] = quantile(snapshot_ms, 0.99);
    L["service.finalize_s"] = median(per_pass("service.finalize"));
    L["service.stop_s"] = median(per_pass("service.stop"));
    L["util.steals"] = median(steals);
    L["util.steal_success"] = attempts > 0 ? stolen / attempts : 0.0;
    L["core.world_ms_p50"] = quantile(world_ms, 0.5);
    L["core.world_ms_p99"] = quantile(world_ms, 0.99);
    L["pass.wall_throughput_per_s"] = median(wall_rates(untraced));
    L["trace.throughput_delta_per_s"] = median(cpu_rates(traced)) - out.throughput_per_s;
    std::fprintf(stderr, "%s: %zu snapshot samples, %zu single-target worlds\n", shape.name,
                 snapshot_ms.size(), world_ms.size());

    if (shape.durable) {
      // One load() and one save() of the final checkpoint, in isolation:
      // what each wall-clock save pays while holding the completion lock.
      std::vector<double> load_s, save_s;
      const std::string copy = opt.out_dir + "/" + shape.name + ".probe.ckpt";
      for (int i = 0; i < 3; ++i) {
        std::int64_t start = now_ns();
        const SurveyCheckpoint cp = SurveyCheckpoint::load(run.checkpoint_path());
        load_s.push_back(wall_s_since(start));
        start = now_ns();
        cp.save(copy);
        save_s.push_back(wall_s_since(start));
      }
      std::filesystem::remove(copy);
      L["core.checkpoint_mb"] = file_mb(run.checkpoint_path());
      L["core.checkpoint_save_s"] = median(save_s);
      L["core.checkpoint_load_s"] = median(load_s);
      L["report.emit_s"] = median(per_pass("report.emit"));
      L["report.emit_mb"] = file_mb(run.jsonl_path());
    }
  }

  // ---- verification: after the clock, counts toward no metric.
  for (const std::vector<PassRecord>* records : {&untraced, &traced}) {
    for (const PassRecord& p : *records) {
      out.attempted += p.admitted;
      out.failed += p.failed;
    }
  }
  // The reference: a one-worker service over the full fleet and seed,
  // logs retained so its canonical JSONL exists too.
  const std::vector<SurveyTargetConfig> full = population(opt.seed, targets);
  SurveyService oracle{service_config(opt.seed, 1, true, {})};
  oracle.admit(full);
  oracle.drain();
  const std::uint64_t metrics_want = fnv1a64(canonical_metrics(oracle));
  std::uint64_t jsonl_want = 0;
  if (shape.durable) {
    std::ostringstream s;
    reorder::report::JsonlWriter w{s};
    oracle.emit_jsonl(w);
    jsonl_want = fnv1a64(s.str());
  }
  oracle.stop();

  bool metrics_ok = true, jsonl_ok = true, complete = true;
  for (const std::vector<PassRecord>* records : {&untraced, &traced}) {
    for (const PassRecord& p : *records) {
      metrics_ok = metrics_ok && p.metrics_hash == metrics_want;
      jsonl_ok = jsonl_ok && (!shape.durable || p.jsonl_hash == jsonl_want);
      complete = complete && p.completed == full.size() && p.failed == 0;
    }
  }
  if (!metrics_ok) out.errors.push_back("metrics records differ from the workers:1 reference");
  if (!jsonl_ok) out.errors.push_back("canonical JSONL differs from the workers:1 reference");
  if (!complete) out.errors.push_back("a pass did not complete every target of the fleet");
  if (shape.durable) {
    // The last pass's checkpoint (packet uids in it differ run to run, so
    // its bytes are not compared, only its records).
    const SurveyCheckpoint cp = SurveyCheckpoint::load(run.checkpoint_path());
    bool every_target = cp.torn_records() == 0 && cp.completed_count() == full.size();
    for (std::size_t i = 0; every_target && i < full.size(); ++i) every_target = cp.has_shard(i);
    if (!every_target) {
      out.errors.push_back("checkpoint lacks a CRC-valid record for every target");
    }
  }
  std::fprintf(stderr, "%s: %zu targets/pass, %zu timed passes\n", shape.name, fleet.size(),
               untraced.size() + traced.size());
  return out;
}

}  // namespace

Outcome run_survey_lean(const Options& opt) {
  return run_survey(opt, Shape{"survey-lean", 3, false, 4096, 16});
}

Outcome run_survey_durable(const Options& opt) {
  return run_survey(opt, Shape{"survey-durable", 2, true, 512, 16});
}

}  // namespace perfbench
