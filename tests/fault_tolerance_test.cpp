// The fault-tolerant survey service, pinned end to end:
//
//   * FaultInjector decisions are a pure function of (seed, site, hit) —
//     replaying a seed replays the exact failure sequence;
//   * every library metric's snapshot round-trips to_json -> from_json ->
//     merge bit-exactly (the contract checkpoint restore stands on), and
//     a record whose values would size an allocation is rejected before
//     anything is allocated;
//   * kill-and-resume is byte-identical: interrupt a survey after ANY k
//     completed targets, resume from the checkpoint, and the merged JSONL
//     and metric snapshots equal an uninterrupted run's — torn checkpoint
//     records are detected by checksum and their targets re-run;
//   * failed target worlds retry with backoff and classification
//     (transient retries, deterministic does not), and retry exhaustion
//     degrades the survey instead of aborting it, with the whole fleet
//     accounted for;
//   * the crash-safe JSONL writer publishes artifacts atomically and the
//     lenient reader recovers the well-formed prefix of a torn file;
//   * merge_fleet_streams folds two runs' artifacts into the byte-exact
//     stream one combined run would have emitted (reorder-merge's core).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet_merge.hpp"
#include "core/scenario.hpp"
#include "core/survey_world.hpp"
#include "metrics/pair_metrics.hpp"
#include "metrics/restore.hpp"
#include "metrics/sketch.hpp"
#include "report/sinks.hpp"
#include "service/survey_service.hpp"
#include "util/fault_injector.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::core {
namespace {

using service::SurveyService;
using service::SurveyServiceConfig;
using util::Duration;
using util::FaultInjector;
using util::InjectedFault;

constexpr std::uint64_t kSeed = 7;
constexpr int kRounds = 2;
constexpr std::size_t kTargets = 6;

std::vector<SurveyTargetConfig> six_targets() {
  std::vector<SurveyTargetConfig> targets;
  for (std::size_t i = 0; i < kTargets; ++i) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = static_cast<double>(i % 3) * 0.11;
    target.reverse.swap_probability = static_cast<double>(i % 3) * 0.04;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    targets.push_back(std::move(target));
  }
  return targets;
}

TestRunConfig quick_run() {
  TestRunConfig run;
  run.samples = 6;
  return run;
}

SurveyServiceConfig service_config(std::size_t workers = 2) {
  SurveyServiceConfig cfg;
  cfg.seed = kSeed;
  cfg.workers = workers;
  cfg.run = quick_run();
  cfg.rounds = kRounds;
  cfg.between = Duration::millis(500);
  return cfg;
}

/// Target `index` of the fleet run alone in its own world — exactly the
/// record a service that completed the target checkpoints.
ShardRunResult target_world(std::size_t index) {
  SurveyTargetConfig target = six_targets().at(index);
  pin_target_identity(target, index, util::ShardSeeder{kSeed});
  SurveyEngine::Options options;
  options.retain_samples = true;
  ShardRunResult result = run_survey_world({.seed = kSeed, .targets = {std::move(target)}},
                                           options, {}, quick_run(), kRounds,
                                           Duration::millis(500));
  result.shard = index;
  return result;
}

std::string canonical_jsonl(SurveyService& service) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  service.emit_jsonl(writer);
  return text.str();
}

/// A service over the whole fleet, optionally restored from `checkpoint`
/// first, admitted and drained.
std::unique_ptr<SurveyService> run_fleet(SurveyServiceConfig cfg,
                                         const SurveyCheckpoint* checkpoint = nullptr) {
  auto service = std::make_unique<SurveyService>(std::move(cfg));
  if (checkpoint != nullptr) service->restore(*checkpoint);
  service->admit(six_targets());
  service->drain();
  return service;
}

/// The uninterrupted, fault-free run every recovery path must reproduce.
const std::string& clean_jsonl() {
  static const std::string jsonl = canonical_jsonl(*run_fleet(service_config()));
  return jsonl;
}

std::string metrics_jsonl(const metrics::MetricEngine& engine) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  engine.emit_jsonl(writer, metrics::MetricEngine::EmitOrder::kCanonical);
  return text.str();
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, FiringSequenceIsAPureFunctionOfSeedSiteAndHit) {
  const auto drive = [](FaultInjector& f) {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(f.should_fire("shard/3/run", FaultInjector::Mode::kThrow));
      fired.push_back(f.should_fire("target/h/test/syn", FaultInjector::Mode::kTargetTimeout));
    }
    return fired;
  };

  FaultInjector a{42};
  a.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  a.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});
  FaultInjector b{42};
  b.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  b.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});

  const auto seq_a = drive(a);
  EXPECT_EQ(seq_a, drive(b)) << "same seed must replay the same firing sequence";
  EXPECT_GT(a.fired("shard/3/run"), 0u);
  EXPECT_LT(a.fired("shard/3/run"), 64u);  // p=0.25 must not fire every hit

  // A different seed draws a different sequence (overwhelmingly likely
  // over 128 Bernoulli(0.25) decisions).
  FaultInjector c{43};
  c.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  c.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});
  EXPECT_NE(seq_a, drive(c));

  // reset() replays from hit zero: one injector drives run-after-run
  // comparisons.
  const auto firings_before = a.firings();
  a.reset();
  EXPECT_EQ(drive(a), seq_a);
  ASSERT_EQ(a.firings().size(), firings_before.size());
}

TEST(FaultInjector, PlansMatchByModeExactSiteOrPrefixAndHonorMaxFires) {
  FaultInjector f{7};
  f.arm({"shard/", FaultInjector::Mode::kShardAbort, 1.0, 2, true});

  // Mode must match: a kThrow probe at an armed kShardAbort site is inert.
  EXPECT_FALSE(f.should_fire("shard/0/run", FaultInjector::Mode::kThrow));
  // Prefix plan arms every shard site; max_fires=2 stops it after two.
  EXPECT_TRUE(f.should_fire("shard/0/abort", FaultInjector::Mode::kShardAbort));
  EXPECT_TRUE(f.should_fire("shard/1/abort", FaultInjector::Mode::kShardAbort));
  EXPECT_FALSE(f.should_fire("shard/2/abort", FaultInjector::Mode::kShardAbort));
  // Non-matching site is never armed.
  EXPECT_FALSE(f.should_fire("jsonl/write", FaultInjector::Mode::kSinkWriteFailure));

  // maybe_throw carries the plan's transient class on the raised fault.
  FaultInjector g{7};
  g.arm({"jsonl/write", FaultInjector::Mode::kSinkWriteFailure, 1.0, 0, false});
  try {
    g.maybe_throw("jsonl/write", FaultInjector::Mode::kSinkWriteFailure);
    FAIL() << "armed p=1.0 site must throw";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.site(), "jsonl/write");
    EXPECT_FALSE(fault.transient());
  }
}

// ------------------------------------- metric snapshot restore contract

TEST(MetricRestore, EveryLibraryMetricRoundTripsBitExactly) {
  // Exercise every library metric over real survey traffic, snapshot the
  // engine's records, restore them into a fresh engine, and demand the
  // re-rendering is byte-identical — the exact path checkpoint restore
  // and reorder-merge ingestion take.
  SurveyServiceConfig cfg = service_config();
  cfg.suite_factory = [](std::string_view target, std::string_view test) {
    metrics::MetricSuite suite = metrics::default_suite(target, test);
    suite.add(metrics::make_metric("sequence_extent"));
    suite.add(metrics::make_metric("n_reordering"));
    suite.add(metrics::make_metric("reorder_density"));
    suite.add(metrics::make_metric("buffer_density"));
    suite.add(metrics::make_metric("latency_histogram"));
    return suite;
  };
  const std::unique_ptr<SurveyService> service = run_fleet(std::move(cfg));
  const std::string original = metrics_jsonl(service->metrics());
  ASSERT_FALSE(original.empty());

  metrics::MetricEngine restored;
  for (const report::Json& record : report::read_jsonl_text(original)) {
    restored.restore_record(record);
  }
  EXPECT_EQ(metrics_jsonl(restored), original);
}

TEST(MetricRestore, RestoredSnapshotsMergeBitExactlyWithLiveOnes) {
  // The property checkpoint adoption depends on: restoring HALF the
  // targets from serialized snapshots and merging with the other half run
  // live must equal the all-live merge bit-for-bit.
  const std::string all_live = metrics_jsonl(run_fleet(service_config())->metrics());

  metrics::MetricEngine live;
  metrics::MetricEngine other_half;
  for (std::size_t i = 0; i < kTargets; ++i) {
    (i < kTargets / 2 ? live : other_half).merge(target_world(i).metrics);
  }
  metrics::MetricEngine restored;
  for (const report::Json& record : report::read_jsonl_text(metrics_jsonl(other_half))) {
    restored.restore_record(record);
  }
  live.merge(restored);
  EXPECT_EQ(metrics_jsonl(live), all_live);
}

TEST(MetricRestore, UnknownMetricNameThrows) {
  EXPECT_THROW(metrics::make_metric("no-such-metric"), std::invalid_argument);
}

TEST(MetricRestore, SizingValuesAtTheirLimitsStillRoundTrip) {
  // The largest bucket a value can reach (UINT64_MAX's, index 1919)
  // restores; the next index is no value's and is refused.
  const auto sketch_with_bucket = [](std::uint64_t index) {
    return *report::Json::parse(R"({"count":1,"min":1,"max":1,"sum":1,"buckets":[[)" +
                                std::to_string(index) + ",1]]}");
  };
  metrics::TailSketch top;
  top.add(std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(top.to_json().at("buckets").items().front().at(0).as_u64(), 1919u);
  metrics::TailSketch back;
  back.from_json(sketch_with_bucket(1919));
  EXPECT_EQ(back.to_json().at("buckets").dump(), "[[1919,1]]");
  EXPECT_THROW(back.from_json(sketch_with_bucket(1920)), std::invalid_argument);

  // ...and so does the widest histogram a metric may be built with; one
  // bin more is refused at construction, so no live histogram is
  // unrestorable.
  const metrics::LatencyHistogramMetric widest{0.0, 1000.0,
                                               metrics::LatencyHistogramMetric::kMaxBins};
  metrics::LatencyHistogramMetric restored;
  restored.from_json(widest.to_json());
  EXPECT_EQ(restored.histogram().bins(), metrics::LatencyHistogramMetric::kMaxBins);
  EXPECT_THROW((metrics::LatencyHistogramMetric{
                   0.0, 1000.0, metrics::LatencyHistogramMetric::kMaxBins + 1}),
               std::invalid_argument);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REORDER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REORDER_SANITIZED 1
#endif
#endif

#ifndef REORDER_SANITIZED
/// Runs in the death-test child: under a 1 GiB address-space limit,
/// restores suites whose records pick an allocation size — a late_time
/// bucket index of 4e12 (a 32 TB bucket array) and a latency_histogram of
/// 600M bins (4.8 GB of zeroed counts). Both must be refused with
/// std::invalid_argument; sizing by the value dies of bad_alloc.
int value_sized_restore_child() {
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) return 3;
  limit.rlim_cur = rlim_t{1} << 30;
  if (setrlimit(RLIMIT_AS, &limit) != 0) return 3;

  const char* hostile[] = {
      R"({"late_time":{"count":1,"min":1,"max":1,"mean":1.0,"p50":1,"p90":1,"p99":1,)"
      R"("sum":1,"buckets":[[4000000000000,1]]}})",
      R"({"latency_histogram":{"count":0,"underflow":0,"overflow":0,"lo":0.0,)"
      R"("hi":1000000.0,"nbins":600000000,"bins":[]}})",
  };
  for (const char* text : hostile) {
    const std::optional<report::Json> suite = report::Json::parse(text);
    if (!suite) return 2;
    try {
      metrics::suite_from_json(*suite);
      return 1;  // accepted
    } catch (const std::invalid_argument&) {
    }
  }
  return 0;
}
#endif

TEST(MetricRestore, ValueSizedRecordsAreRejectedUnderAOneGibAddressLimit) {
#ifdef REORDER_SANITIZED
  // ASan and TSan reserve terabytes of shadow address space up front, so
  // no address-space limit can hold under them.
  GTEST_SKIP() << "address-space limits do not apply under ASan/TSan";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(_exit(value_sized_restore_child()), ::testing::ExitedWithCode(0), "");
#endif
}

// ------------------------------------------------------ checkpoint codec

TEST(Checkpoint, MeasurementCodecIsFullFidelity) {
  const ShardRunResult world = target_world(1);
  ASSERT_FALSE(world.log.empty());
  for (const Measurement& m : world.log) {
    const Measurement back = measurement_from_json(measurement_to_json(m));
    EXPECT_EQ(back.target, m.target);
    EXPECT_EQ(back.test, m.test);
    EXPECT_EQ(back.at.ns(), m.at.ns());
    EXPECT_EQ(back.result.admissible, m.result.admissible);
    EXPECT_EQ(back.result.note, m.result.note);
    EXPECT_EQ(back.result.forward.reordered, m.result.forward.reordered);
    ASSERT_EQ(back.result.samples.size(), m.result.samples.size());
    for (std::size_t i = 0; i < m.result.samples.size(); ++i) {
      const SampleResult& a = back.result.samples[i];
      const SampleResult& b = m.result.samples[i];
      EXPECT_EQ(a.forward, b.forward);
      EXPECT_EQ(a.reverse, b.reverse);
      EXPECT_EQ(a.started.ns(), b.started.ns());
      EXPECT_EQ(a.completed.ns(), b.completed.ns());
      EXPECT_EQ(a.gap.ns(), b.gap.ns());
      // The uids the emission schema drops are exactly what the codec
      // must keep (they tie samples to trace captures).
      EXPECT_EQ(a.fwd_uid_first, b.fwd_uid_first);
      EXPECT_EQ(a.fwd_uid_second, b.fwd_uid_second);
      EXPECT_EQ(a.rev_uid_first, b.rev_uid_first);
      EXPECT_EQ(a.rev_uid_second, b.rev_uid_second);
    }
  }
}

TEST(Checkpoint, SerializeLoadRoundTripsAndChecksumGuardsEveryRecord) {
  SurveyCheckpoint cp;
  cp.set_header({0, kTargets, kRounds, kSeed});
  cp.record_shard(target_world(0), 2);
  cp.record_shard(target_world(2), 1);

  const std::string path = "/tmp/reorder_ckpt_roundtrip.jsonl";
  cp.save(path);
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.header().has_value());
  EXPECT_EQ(loaded.header()->shards, 0u);
  EXPECT_EQ(loaded.header()->seed, kSeed);
  EXPECT_EQ(loaded.completed_shards(), (std::vector<std::size_t>{0, 2}));
  EXPECT_FALSE(loaded.has_shard(1));
  EXPECT_EQ(loaded.attempts(0), 2);
  EXPECT_EQ(loaded.torn_records(), 0u);
  // The reload serializes back to the identical bytes.
  EXPECT_EQ(loaded.serialize(), cp.serialize());

  // Flip one byte inside a record's body: its checksum must disown it
  // (the target re-runs) while the intact record survives.
  std::string text = cp.serialize();
  const std::size_t flip = text.find("\"log\"");
  ASSERT_NE(flip, std::string::npos);
  text[flip + 1] = 'x';
  {
    std::ofstream out{path, std::ios::trunc};
    out << text;
  }
  const SurveyCheckpoint corrupted = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(corrupted.completed_count(), 1u);
  EXPECT_EQ(corrupted.torn_records(), 1u);
}

// Each record is rendered once, at record time, and saved as those cached
// bytes. Pin them to what the record renders to as a Json tree — type,
// shard, crc, body, with the body's metric records parsed back from the
// engine's own emission — over the awkward corners of the encoding: a uid
// past 2^53 (rendered as a u64 string), non-integer doubles (the world's
// reordering rates), and a note holding a quote, a newline and a control
// byte.
TEST(Checkpoint, StoredRecordIsTheTreeRenderingAndSaveWritesIt) {
  ShardRunResult result = target_world(1);
  ASSERT_FALSE(result.log.empty());
  ASSERT_FALSE(result.log[0].result.samples.empty());
  constexpr std::uint64_t kBigUid = (1ull << 53) + 8;
  result.log[0].result.samples[0].fwd_uid_first = kBigUid;
  result.log[0].result.note = "quote \" newline \n control \x01 end";

  SurveyCheckpoint cp;
  cp.record_shard(result, 2);

  report::Json end = report::Json::object();
  end.set("targets", report::Json::u64(result.end.targets));
  end.set("rounds", result.end.rounds);
  end.set("measurements", report::Json::u64(result.end.measurements));
  end.set("at_ns", result.end.at.ns());
  report::Json log = report::Json::array();
  for (const Measurement& m : result.log) log.push(measurement_to_json(m));
  std::ostringstream emitted;
  report::JsonlWriter writer{emitted};
  result.metrics.emit_jsonl(writer, metrics::MetricEngine::EmitOrder::kCanonical);
  report::Json records = report::Json::array();
  for (report::Json& rec : report::read_jsonl_text(emitted.str())) records.push(std::move(rec));
  ASSERT_GT(records.size(), 0u);
  report::Json body = report::Json::object();
  body.set("shard", report::Json::u64(result.shard));
  body.set("attempts", 2);
  body.set("end", std::move(end));
  body.set("log", std::move(log));
  body.set("metrics", std::move(records));
  char crc[17];
  std::snprintf(crc, sizeof crc, "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(body.dump())));
  report::Json line = report::Json::object();
  line.set("type", "shard_done");
  line.set("shard", report::Json::u64(result.shard));
  line.set("crc", crc);
  line.set("body", std::move(body));
  const std::string expected = line.dump() + "\n";
  ASSERT_NE(expected.find("\"fwd_uid_first\":\"9007199254741000\""), std::string::npos);
  ASSERT_NE(expected.find("control \\u0001 end"), std::string::npos);
  ASSERT_NE(expected.find("\"rate\":0.0"), std::string::npos) << "a non-integer metric rate";
  EXPECT_EQ(cp.serialize(), expected);

  cp.set_header({0, kTargets, kRounds, kSeed});
  const std::string path = "/tmp/reorder_ckpt_golden.jsonl";
  cp.save(path);
  std::string written;
  {
    std::ifstream in{path, std::ios::binary};
    written.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(written, cp.serialize());
  EXPECT_EQ(loaded.torn_records(), 0u);
  EXPECT_EQ(loaded.serialize(), cp.serialize());
  EXPECT_EQ(loaded.restore_shard(1).log[0].result.samples[0].fwd_uid_first, kBigUid);
  EXPECT_EQ(loaded.restore_shard(1).log[0].result.note, result.log[0].result.note);
}

// A line of nested brackets is hostile input, not a record: the parser
// bounds its nesting, so the line is torn and dropped, never a stack
// overflow, and the header beside it survives.
TEST(Checkpoint, DeeplyNestedLineLoadsAsOneTornRecord) {
  SurveyCheckpoint header_only;
  header_only.set_header({0, kTargets, kRounds, kSeed});
  const std::string path = "/tmp/reorder_ckpt_nested.jsonl";
  {
    std::ofstream out{path, std::ios::trunc};
    out << header_only.serialize() << std::string(120'000, '[') << '\n';
  }
  const SurveyCheckpoint cp = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(cp.header().has_value());
  EXPECT_EQ(cp.completed_count(), 0u);
  EXPECT_EQ(cp.torn_records(), 1u);
}

TEST(Checkpoint, MissingFileLoadsEmpty) {
  const SurveyCheckpoint cp = SurveyCheckpoint::load("/tmp/reorder_ckpt_never_written.jsonl");
  EXPECT_FALSE(cp.header().has_value());
  EXPECT_EQ(cp.completed_count(), 0u);
  EXPECT_EQ(cp.torn_records(), 0u);
}

// --------------------------------------------------- kill-and-resume

class KillAndResume : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KillAndResume, ResumeAfterAnyKillPointIsByteIdentical) {
  const std::size_t workers = GetParam();
  const std::string ref_metrics = metrics_jsonl(run_fleet(service_config(workers))->metrics());

  // Completion order on a pool is free, so a killed run's checkpoint may
  // hold any subset: kill points walk a seeded permutation of the fleet.
  std::vector<std::size_t> order(kTargets);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), std::mt19937{static_cast<unsigned>(workers)});

  const std::string path = testing::TempDir() + "reorder_ckpt_resume.jsonl";
  for (std::size_t k = 0; k <= kTargets; ++k) {
    // "Kill" after exactly k completed targets: a service generation that
    // admitted only those k at their global indices wrote the checkpoint
    // a killed run would leave behind.
    std::remove(path.c_str());
    {
      SurveyServiceConfig cfg = service_config(workers);
      cfg.checkpoint_path = path;
      SurveyService killed{cfg};
      const std::vector<SurveyTargetConfig> fleet = six_targets();
      for (std::size_t i = 0; i < k; ++i) killed.admit(fleet[order[i]], order[i]);
      killed.stop();
    }
    const SurveyCheckpoint cp = SurveyCheckpoint::load(path);
    ASSERT_EQ(cp.completed_count(), k);

    const std::unique_ptr<SurveyService> resumed = run_fleet(service_config(workers), &cp);
    EXPECT_FALSE(resumed->degraded());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(resumed->attempts(order[i]), 0) << "k=" << k << ": adopted, not re-run";
    }
    EXPECT_EQ(canonical_jsonl(*resumed), clean_jsonl()) << "k=" << k;
    EXPECT_EQ(metrics_jsonl(resumed->metrics()), ref_metrics) << "k=" << k;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, KillAndResume, ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "workers_" + std::to_string(info.param);
                         });

TEST(KillAndResumeTorn, TornCheckpointRecordsAreDetectedAndTheirTargetsReRun) {
  // A checkpoint holding targets {0, 1}, with target 1's record torn
  // mid-write (the file ends mid-line, as a killed writer leaves it).
  SurveyCheckpoint cp;
  cp.set_header({0, kTargets, kRounds, kSeed});
  cp.record_shard(target_world(0));
  cp.record_shard(target_world(1));
  std::string text = cp.serialize();
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t last_begin = second_nl + 1;  // target 1's record starts here
  ASSERT_LT(last_begin, text.size());
  text.resize(last_begin + (text.size() - last_begin) / 2);  // tear it mid-write

  const std::string path = "/tmp/reorder_ckpt_torn.jsonl";
  {
    std::ofstream out{path, std::ios::trunc};
    out << text;
  }
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.completed_count(), 1u);
  EXPECT_GE(loaded.torn_records(), 1u);

  const std::unique_ptr<SurveyService> resumed = run_fleet(service_config(), &loaded);
  EXPECT_EQ(resumed->attempts(0), 0);
  EXPECT_EQ(resumed->attempts(1), 1) << "the torn target re-ran";
  EXPECT_EQ(canonical_jsonl(*resumed), clean_jsonl());
}

TEST(KillAndResume, MismatchedPlanIsRejected) {
  SurveyCheckpoint shard_keyed;
  shard_keyed.set_header({4, kTargets, kRounds, kSeed});  // a shard-keyed layout
  SurveyCheckpoint other_rounds;
  other_rounds.set_header({0, kTargets, kRounds + 1, kSeed});
  SurveyService service{service_config()};
  EXPECT_THROW(service.restore(shard_keyed), std::invalid_argument);
  EXPECT_THROW(service.restore(other_rounds), std::invalid_argument);
}

// ------------------------------------------------ retry and degradation

TEST(RetryPolicy, TransientFaultsAreRetriedUntilTheyStop) {
  FaultInjector faults{11};
  // Target 1's first two attempts die in-flight; the third succeeds.
  faults.arm({"shard/1/run", FaultInjector::Mode::kThrow, 1.0, 2, true});

  SurveyServiceConfig cfg = service_config();
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 3;
  const std::unique_ptr<SurveyService> service = run_fleet(std::move(cfg));

  EXPECT_FALSE(service->degraded());
  EXPECT_EQ(service->attempts(1), 3);
  EXPECT_EQ(service->attempts(0), 1);
  EXPECT_EQ(faults.fired("shard/1/run"), 2u);

  // And the retried run's output is byte-identical to a fault-free one:
  // a world attempt is pure, so dying twice leaves no residue.
  EXPECT_EQ(canonical_jsonl(*service), clean_jsonl());
}

TEST(RetryPolicy, ExhaustionDegradesTheSurveyWithFullFleetAccounting) {
  FaultInjector faults{11};
  faults.arm({"shard/1/abort", FaultInjector::Mode::kShardAbort, 1.0, 0, true});

  const std::string path = testing::TempDir() + "reorder_ckpt_degraded.jsonl";
  std::remove(path.c_str());
  SurveyServiceConfig cfg = service_config();
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 2;
  cfg.checkpoint_path = path;
  const std::unique_ptr<SurveyService> service = run_fleet(std::move(cfg));

  EXPECT_TRUE(service->degraded());
  EXPECT_EQ(service->attempts(1), 2);
  EXPECT_EQ(service->failed_target_indices(), (std::vector<std::size_t>{1}));
  ASSERT_EQ(service->failure_messages().size(), 1u);
  EXPECT_NE(service->failure_messages()[0].find("shard/1/abort"), std::string::npos);

  // survey_end accounts for the WHOLE fleet: participants + failed
  // targets == admitted targets, and the failed name is target 1's.
  const SurveyEvent end = service->survey_end();
  EXPECT_TRUE(end.degraded);
  EXPECT_EQ(end.failed_shards, 1u);
  EXPECT_EQ(end.targets + end.failed_targets.size(), kTargets);
  EXPECT_EQ(end.failed_targets, (std::vector<std::string>{"host-1"}));

  // The participation manifest names every target exactly once.
  const auto manifest = service->participation();
  ASSERT_EQ(manifest.size(), kTargets);
  std::size_t participated = 0;
  for (const auto& [name, ok] : manifest) participated += ok ? 1 : 0;
  EXPECT_EQ(participated, end.targets);

  // The degraded emission carries the accounting: survey_end's tail and
  // the trailing participation record.
  const std::string jsonl = canonical_jsonl(*service);
  const std::vector<report::Json> records = report::read_jsonl_text(jsonl);
  const report::Json& last = records.back();
  EXPECT_EQ(last.at("type").as_string(), "participation");
  EXPECT_EQ(last.at("targets").size(), kTargets);
  bool saw_end = false;
  for (const report::Json& r : records) {
    if (r.at("type").as_string() != "survey_end") continue;
    saw_end = true;
    EXPECT_TRUE(r.at("degraded").as_bool());
    EXPECT_EQ(r.at("failed_shards").as_int(), 1);
    EXPECT_EQ(r.at("failed_targets").size(), 1u);
  }
  EXPECT_TRUE(saw_end);

  // A degraded run's checkpoint resumes to a CLEAN survey once the fault
  // is gone: the failed target is simply pending.
  service->stop();
  const SurveyCheckpoint cp = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(cp.completed_count(), kTargets - 1);
  EXPECT_FALSE(cp.has_shard(1));
  const std::unique_ptr<SurveyService> healed = run_fleet(service_config(), &cp);
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(canonical_jsonl(*healed), clean_jsonl());
}

TEST(RetryPolicy, NonTransientFaultsAreNotRetried) {
  FaultInjector faults{11};
  faults.arm({"shard/0/run", FaultInjector::Mode::kThrow, 1.0, 0, /*transient=*/false});

  SurveyServiceConfig cfg = service_config();
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 5;
  const std::unique_ptr<SurveyService> service = run_fleet(std::move(cfg));

  EXPECT_TRUE(service->degraded());
  // One attempt only: a deterministic failure would fail all five.
  EXPECT_EQ(service->attempts(0), 1);
  EXPECT_EQ(faults.fired("shard/0/run"), 1u);
}

TEST(TargetTimeout, InjectedTimeoutIsDeterministicAndPlacementInvariant) {
  const auto run_with_faults = [](std::size_t workers) {
    FaultInjector faults{5};
    // host-2's syn measurements: the first probe of that site fires, so
    // exactly one measurement times out, identically for any worker count
    // (the site is identity-qualified, not schedule-qualified).
    faults.arm({"target/host-2/test/syn", FaultInjector::Mode::kTargetTimeout, 1.0, 1, true});
    SurveyServiceConfig cfg = service_config(workers);
    cfg.engine.faults = &faults;
    // The injected timeout runs the full measurement deadline in virtual
    // time; keep it short so the test stays fast.
    cfg.engine.measurement_deadline = Duration::seconds(30);
    return canonical_jsonl(*run_fleet(std::move(cfg)));
  };

  const std::string one = run_with_faults(1);
  const std::string three = run_with_faults(3);
  EXPECT_EQ(one, three);

  // The timed-out measurement is recorded inadmissible with the watchdog
  // note — the uncooperative-host outcome, not a crash.
  bool saw_timeout = false;
  for (const report::Json& r : report::read_jsonl_text(one)) {
    if (r.at("type").as_string() != "measurement") continue;
    if (r.at("target").as_string() != "host-2" || r.at("test").as_string() != "syn") continue;
    if (!r.at("admissible").as_bool()) {
      saw_timeout = true;
      EXPECT_EQ(r.at("note").as_string(), "measurement did not complete");
    }
  }
  EXPECT_TRUE(saw_timeout);
}

// ------------------------------------------- crash-safe JSONL artifacts

TEST(CrashSafeJsonl, SinkWriteFailureIsInjectableAndDetected) {
  FaultInjector faults{3};
  faults.arm({"jsonl/write", FaultInjector::Mode::kSinkWriteFailure, 1.0, 1, true});
  std::ostringstream out;
  report::JsonlWriter writer{out};
  writer.set_fault_injector(&faults);

  report::Json line = report::Json::object();
  line.set("type", "probe");
  EXPECT_THROW(writer.write(line), InjectedFault);
  // One fire only (max_fires=1): the stream then keeps working, and the
  // failed write left no partial line behind.
  writer.write(line);
  EXPECT_EQ(out.str(), line.dump() + "\n");
  EXPECT_EQ(writer.lines_written(), 1u);
}

TEST(CrashSafeJsonl, AtomicFilePublishesOnlyOnCommit) {
  const std::string path = "/tmp/reorder_atomic_jsonl_test.jsonl";
  std::remove(path.c_str());
  {
    // Destroyed uncommitted: no artifact, no tmp residue.
    report::AtomicJsonlFile file{path};
    report::Json line = report::Json::object();
    line.set("k", 1);
    file.writer().write(line);
    EXPECT_FALSE(std::ifstream{path}.good());
  }
  EXPECT_FALSE(std::ifstream{path}.good());
  EXPECT_FALSE(std::ifstream{path + ".tmp"}.good());

  {
    report::AtomicJsonlFile file{path};
    report::Json line = report::Json::object();
    line.set("k", 2);
    file.writer().write(line);
    EXPECT_FALSE(std::ifstream{path}.good()) << "nothing published before commit";
    file.commit();
  }
  const std::vector<report::Json> back = report::read_jsonl_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].at("k").as_int(), 2);
}

TEST(CrashSafeJsonl, TruncatedFileRecoversItsWellFormedPrefix) {
  const std::string path = "/tmp/reorder_truncated_jsonl_test.jsonl";
  std::string text;
  for (int i = 0; i < 5; ++i) {
    report::Json line = report::Json::object();
    line.set("i", i);
    text += line.dump() + "\n";
  }
  // Tear the file mid-record 4, as a killed writer would.
  {
    std::ofstream out{path, std::ios::trunc};
    out << text.substr(0, text.size() - 6);
  }

  // The strict reader refuses the torn file outright...
  EXPECT_THROW(report::read_jsonl_file(path), std::runtime_error);
  // ...the recovery reader hands back records 0..3 and reports the tear.
  const report::RecoveredJsonl recovered = report::read_jsonl_file_prefix(path);
  std::remove(path.c_str());
  ASSERT_EQ(recovered.records.size(), 4u);
  EXPECT_EQ(recovered.dropped_lines, 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recovered.records[i].at("i").as_int(), i);
}

// ------------------------------------------------- flaky-target scenario

TEST(FlakyTarget, SynDropsAndRateLimitingAreExercisedYetMeasurementsComplete) {
  ScenarioSpec spec = scenarios::flaky_target(/*seed=*/23);
  spec.tests = {TestSpec{"syn"}, TestSpec{"ping-burst"}};
  spec.rounds = 2;
  spec.run.samples = 10;

  Testbed bed{spec.testbed};
  const ScenarioResult result = run_scenario(bed, spec);

  // The host really is flaky: opening SYNs were dropped and echo replies
  // rate-limited...
  EXPECT_GT(bed.remote().counters().syn_dropped, 0u);
  EXPECT_GT(bed.remote().counters().echo_rate_limited, 0u);
  // ...yet the prober's retransmissions get measurements through: the
  // syn technique stays admissible with usable samples.
  const ReorderEstimate syn = result.aggregate("syn", /*forward=*/true);
  EXPECT_GT(syn.usable(), 0u);
}

// --------------------------------------------------- fleet-stream merge

TEST(FleetMerge, TwoRunsFoldIntoTheCombinedRunsBytes) {
  // Two services over DISJOINT fleet slices, each admitting its targets
  // at their explicit global indices, so every target's pinned identity
  // is the one the combined run gives it.
  const auto make_target = [](std::size_t i) {
    SurveyTargetConfig target;
    target.name = "m-" + std::to_string(i);
    target.forward.swap_probability = static_cast<double>(i % 2) * 0.13;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    return target;
  };
  const auto run_slice = [&](std::size_t begin, std::size_t end) {
    SurveyServiceConfig cfg = service_config();
    cfg.seed = 99;
    SurveyService service{cfg};
    for (std::size_t i = begin; i < end; ++i) service.admit(make_target(i), i);
    service.drain();
    return canonical_jsonl(service);
  };
  const std::string east = run_slice(0, 2);
  const std::string west = run_slice(2, 4);
  const std::string combined = run_slice(0, 4);

  const std::vector<report::Json> merged = merge_fleet_streams(
      {report::read_jsonl_text(east), report::read_jsonl_text(west)});
  std::string merged_text;
  for (const report::Json& record : merged) merged_text += record.dump() + "\n";
  EXPECT_EQ(merged_text, combined);

  // And the fold is idempotent: merging one run reproduces it.
  const std::vector<report::Json> self = merge_fleet_streams({report::read_jsonl_text(east)});
  std::string self_text;
  for (const report::Json& record : self) self_text += record.dump() + "\n";
  EXPECT_EQ(self_text, east);
}

TEST(FleetMerge, TornInputIsRejected) {
  // A sample line whose measurement record is missing (torn artifact).
  report::Json sample = report::Json::object();
  sample.set("type", "sample");
  sample.set("target", "h");
  sample.set("test", "syn");
  sample.set("measurement", 0);
  EXPECT_THROW(merge_fleet_streams({{sample}}), std::runtime_error);
}

}  // namespace
}  // namespace reorder::core
