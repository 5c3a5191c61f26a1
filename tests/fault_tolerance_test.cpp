// The fault-tolerant survey runtime, pinned end to end:
//
//   * FaultInjector decisions are a pure function of (seed, site, hit) —
//     replaying a seed replays the exact failure sequence;
//   * every library metric's snapshot round-trips to_json -> from_json ->
//     merge bit-exactly (the contract checkpoint restore stands on);
//   * kill-and-resume is byte-identical: interrupt a sharded survey after
//     ANY k completed shards, resume from the checkpoint, and the merged
//     JSONL and metric snapshots equal an uninterrupted run's — torn
//     checkpoint records are detected by checksum and their shards re-run;
//   * failed shards retry with backoff and classification (transient
//     retries, deterministic does not), and retry exhaustion degrades the
//     survey instead of aborting it, with the whole fleet accounted for;
//   * the crash-safe JSONL writer publishes artifacts atomically and the
//     lenient reader recovers the well-formed prefix of a torn file;
//   * merge_fleet_streams folds two runs' artifacts into the byte-exact
//     stream one combined run would have emitted (reorder-merge's core).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet_merge.hpp"
#include "core/scenario.hpp"
#include "core/sharded_survey.hpp"
#include "metrics/restore.hpp"
#include "report/sinks.hpp"
#include "util/fault_injector.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::core {
namespace {

using util::Duration;
using util::FaultInjector;
using util::InjectedFault;

SurveyTestbedConfig six_target_fleet(std::uint64_t seed = 7) {
  SurveyTestbedConfig cfg;
  cfg.seed = seed;
  for (int i = 0; i < 6; ++i) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 3) * 0.11;
    target.reverse.swap_probability = (i % 3) * 0.04;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    cfg.targets.push_back(std::move(target));
  }
  return cfg;
}

ShardedSurveyConfig sharded(std::size_t shards, std::size_t threads = 2) {
  ShardedSurveyConfig cfg;
  cfg.fleet = six_target_fleet();
  cfg.shards = shards;
  cfg.threads = threads;
  return cfg;
}

TestRunConfig quick_run() {
  TestRunConfig run;
  run.samples = 6;
  return run;
}

constexpr int kRounds = 2;

std::string canonical_jsonl(const ShardedSurveyEngine& engine) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  engine.emit_jsonl(writer);
  return text.str();
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
  ShardedSurveyConfig cfg = sharded(2);
  cfg.suite_factory = [](std::string_view target, std::string_view test) {
    metrics::MetricSuite suite = metrics::default_suite(target, test);
    suite.add(metrics::make_metric("sequence_extent"));
    suite.add(metrics::make_metric("n_reordering"));
    suite.add(metrics::make_metric("reorder_density"));
    suite.add(metrics::make_metric("buffer_density"));
    suite.add(metrics::make_metric("latency_histogram"));
    return suite;
  };
  ShardedSurveyEngine engine{std::move(cfg)};
  engine.run(quick_run(), kRounds, Duration::millis(500));
  const std::string original = metrics_jsonl(engine.metrics());
  ASSERT_FALSE(original.empty());

  metrics::MetricEngine restored;
  for (const report::Json& record : report::read_jsonl_text(original)) {
    restored.restore_record(record);
  }
  EXPECT_EQ(metrics_jsonl(restored), original);
}

TEST(MetricRestore, RestoredSnapshotsMergeBitExactlyWithLiveOnes) {
  // The property resume() depends on: restoring HALF the shards from
  // serialized snapshots and merging with the other half run live must
  // equal the all-live batch merge bit-for-bit.
  ShardedSurveyEngine reference{sharded(2)};
  reference.run(quick_run(), kRounds, Duration::millis(500));
  const std::string batch = metrics_jsonl(reference.metrics());

  const ShardedSurveyEngine split{sharded(2)};
  ShardRunResult live0 = split.run_shard(0, quick_run(), kRounds, Duration::millis(500));
  const ShardRunResult live1 = split.run_shard(1, quick_run(), kRounds, Duration::millis(500));

  metrics::MetricEngine restored1;
  for (const report::Json& record : report::read_jsonl_text(metrics_jsonl(live1.metrics))) {
    restored1.restore_record(record);
  }
  live0.metrics.merge(restored1);
  EXPECT_EQ(metrics_jsonl(live0.metrics), batch);
}

TEST(MetricRestore, UnknownMetricNameThrows) {
  EXPECT_THROW(metrics::make_metric("no-such-metric"), std::invalid_argument);
}

// ------------------------------------------------------ checkpoint codec

TEST(Checkpoint, MeasurementCodecIsFullFidelity) {
  ShardedSurveyEngine engine{sharded(1, 1)};
  engine.run(quick_run(), 1, Duration::millis(500));
  ASSERT_FALSE(engine.measurements().empty());
  for (const Measurement& m : engine.measurements()) {
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
  const ShardedSurveyEngine engine{sharded(3)};
  SurveyCheckpoint cp;
  cp.set_header({3, 6, kRounds, 7});
  cp.record_shard(engine.run_shard(0, quick_run(), kRounds, Duration::millis(500)), 2);
  cp.record_shard(engine.run_shard(2, quick_run(), kRounds, Duration::millis(500)), 1);

  const std::string path = "/tmp/reorder_ckpt_roundtrip.jsonl";
  cp.save(path);
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.header().has_value());
  EXPECT_EQ(loaded.header()->shards, 3u);
  EXPECT_EQ(loaded.header()->seed, 7u);
  EXPECT_EQ(loaded.completed_shards(), (std::vector<std::size_t>{0, 2}));
  EXPECT_FALSE(loaded.has_shard(1));
  EXPECT_EQ(loaded.attempts(0), 2);
  EXPECT_EQ(loaded.torn_records(), 0u);
  // The reload serializes back to the identical bytes.
  EXPECT_EQ(loaded.serialize(), cp.serialize());

  // Flip one byte inside a record's body: its checksum must disown it
  // (the shard re-runs) while the intact record survives.
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
// past 2^53 (rendered as a u64 string), non-integer doubles (the shard's
// reordering rates), and a note holding a quote, a newline and a control
// byte.
TEST(Checkpoint, StoredRecordIsTheTreeRenderingAndSaveWritesIt) {
  const ShardedSurveyEngine engine{sharded(3)};
  ShardRunResult result = engine.run_shard(1, quick_run(), kRounds, Duration::millis(500));
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

  cp.set_header({3, 6, kRounds, 7});
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
  header_only.set_header({3, 6, kRounds, 7});
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

TEST_P(KillAndResume, ResumeAfterAnyShardCountIsByteIdentical) {
  const std::size_t shards = GetParam();

  // The uninterrupted reference.
  ShardedSurveyEngine reference{sharded(shards)};
  reference.run(quick_run(), kRounds, Duration::millis(500));
  const std::string ref_jsonl = canonical_jsonl(reference);
  const std::string ref_metrics = metrics_jsonl(reference.metrics());

  const std::string path = "/tmp/reorder_ckpt_resume.jsonl";
  for (std::size_t k = 0; k < shards; ++k) {
    // "Kill" after exactly k completed shards: record the first k shard
    // results (run_shard is pure, so these are the bytes a killed run's
    // checkpoint would hold) and resume from there.
    const ShardedSurveyEngine partial{sharded(shards)};
    SurveyCheckpoint cp;
    cp.set_header({shards, 6, kRounds, 7});
    for (std::size_t s = 0; s < k; ++s) {
      cp.record_shard(partial.run_shard(s, quick_run(), kRounds, Duration::millis(500)));
    }
    cp.save(path);

    ShardedSurveyEngine resumed{sharded(shards)};
    resumed.resume(SurveyCheckpoint::load(path), quick_run(), kRounds, Duration::millis(500));
    EXPECT_FALSE(resumed.degraded());
    EXPECT_EQ(canonical_jsonl(resumed), ref_jsonl) << "k=" << k;
    EXPECT_EQ(metrics_jsonl(resumed.metrics()), ref_metrics) << "k=" << k;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, KillAndResume, ::testing::Values(1u, 2u, 3u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

TEST(KillAndResumeTorn, TornCheckpointRecordsAreDetectedAndTheirShardsReRun) {
  constexpr std::size_t kShards = 3;
  ShardedSurveyEngine reference{sharded(kShards)};
  reference.run(quick_run(), kRounds, Duration::millis(500));
  const std::string ref_jsonl = canonical_jsonl(reference);

  // A checkpoint holding shards {0, 1}, with shard 1's record torn
  // mid-write (the file ends mid-line, as a killed writer leaves it).
  const ShardedSurveyEngine partial{sharded(kShards)};
  SurveyCheckpoint cp;
  cp.set_header({kShards, 6, kRounds, 7});
  cp.record_shard(partial.run_shard(0, quick_run(), kRounds, Duration::millis(500)));
  cp.record_shard(partial.run_shard(1, quick_run(), kRounds, Duration::millis(500)));
  std::string text = cp.serialize();
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t last_begin = second_nl + 1;  // shard 1's record starts here
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

  ShardedSurveyEngine resumed{sharded(kShards)};
  resumed.resume(loaded, quick_run(), kRounds, Duration::millis(500));
  EXPECT_EQ(canonical_jsonl(resumed), ref_jsonl);
}

TEST(KillAndResume, MismatchedPlanIsRejected) {
  SurveyCheckpoint cp;
  cp.set_header({4, 6, kRounds, 7});  // 4 shards...
  ShardedSurveyEngine engine{sharded(3)};  // ...resumed on a 3-shard plan
  EXPECT_THROW(engine.resume(cp, quick_run(), kRounds, Duration::millis(500)),
               std::invalid_argument);
}

// ------------------------------------------------ retry and degradation

TEST(RetryPolicy, TransientFaultsAreRetriedUntilTheyStop) {
  FaultInjector faults{11};
  // Shard 1's first two attempts die in-flight; the third succeeds.
  faults.arm({"shard/1/run", FaultInjector::Mode::kThrow, 1.0, 2, true});

  ShardedSurveyConfig cfg = sharded(3);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 3;
  ShardedSurveyEngine engine{std::move(cfg)};
  engine.run(quick_run(), kRounds, Duration::millis(500));

  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.shard_attempts(1), 3);
  EXPECT_EQ(engine.shard_attempts(0), 1);
  EXPECT_EQ(faults.fired("shard/1/run"), 2u);

  // And the retried run's output is byte-identical to a fault-free one:
  // a shard attempt is pure, so dying twice leaves no residue.
  ShardedSurveyEngine clean{sharded(3)};
  clean.run(quick_run(), kRounds, Duration::millis(500));
  EXPECT_EQ(canonical_jsonl(engine), canonical_jsonl(clean));
}

TEST(RetryPolicy, ExhaustionDegradesTheSurveyWithFullFleetAccounting) {
  FaultInjector faults{11};
  faults.arm({"shard/1/abort", FaultInjector::Mode::kShardAbort, 1.0, 0, true});

  ShardedSurveyConfig cfg = sharded(3);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 2;
  ShardedSurveyEngine engine{std::move(cfg)};
  const std::vector<std::size_t> shard1_targets = engine.shard_targets(1);
  engine.run(quick_run(), kRounds, Duration::millis(500));

  EXPECT_TRUE(engine.degraded());
  EXPECT_EQ(engine.shard_attempts(1), 2);
  EXPECT_EQ(engine.failed_shard_indices(), (std::vector<std::size_t>{1}));
  ASSERT_EQ(engine.failure_messages().size(), 1u);
  EXPECT_NE(engine.failure_messages()[0].find("shard/1/abort"), std::string::npos);

  // survey_end accounts for the WHOLE fleet: participants + failed
  // targets == configured targets, and the failed names are shard 1's.
  const SurveyEvent& end = engine.survey_end();
  EXPECT_TRUE(end.degraded);
  EXPECT_EQ(end.failed_shards, 1u);
  EXPECT_EQ(end.targets + end.failed_targets.size(), 6u);
  EXPECT_EQ(end.failed_targets.size(), shard1_targets.size());
  for (const std::size_t i : shard1_targets) {
    EXPECT_NE(std::find(end.failed_targets.begin(), end.failed_targets.end(),
                        "host-" + std::to_string(i)),
              end.failed_targets.end());
  }

  // The participation manifest names every target exactly once.
  const auto manifest = engine.participation();
  ASSERT_EQ(manifest.size(), 6u);
  std::size_t participated = 0;
  for (const auto& [name, ok] : manifest) participated += ok ? 1 : 0;
  EXPECT_EQ(participated, end.targets);

  // The degraded emission carries the accounting: survey_end's tail and
  // the trailing participation record.
  const std::string jsonl = canonical_jsonl(engine);
  const std::vector<report::Json> records = report::read_jsonl_text(jsonl);
  const report::Json& last = records.back();
  EXPECT_EQ(last.at("type").as_string(), "participation");
  EXPECT_EQ(last.at("targets").size(), 6u);
  bool saw_end = false;
  for (const report::Json& r : records) {
    if (r.at("type").as_string() != "survey_end") continue;
    saw_end = true;
    EXPECT_TRUE(r.at("degraded").as_bool());
    EXPECT_EQ(r.at("failed_shards").as_int(), 1);
    EXPECT_EQ(r.at("failed_targets").size(), shard1_targets.size());
  }
  EXPECT_TRUE(saw_end);

  // A degraded run's checkpoint resumes to a CLEAN survey once the fault
  // is gone: the failed shard is simply pending.
  SurveyCheckpoint cp;
  cp.set_header({3, 6, kRounds, 7});
  const ShardedSurveyEngine rebuild{sharded(3)};
  cp.record_shard(rebuild.run_shard(0, quick_run(), kRounds, Duration::millis(500)));
  cp.record_shard(rebuild.run_shard(2, quick_run(), kRounds, Duration::millis(500)));
  ShardedSurveyEngine healed{sharded(3)};
  healed.resume(cp, quick_run(), kRounds, Duration::millis(500));
  EXPECT_FALSE(healed.degraded());
  ShardedSurveyEngine clean{sharded(3)};
  clean.run(quick_run(), kRounds, Duration::millis(500));
  EXPECT_EQ(canonical_jsonl(healed), canonical_jsonl(clean));
}

TEST(RetryPolicy, NonTransientFaultsAreNotRetried) {
  FaultInjector faults{11};
  faults.arm({"shard/0/run", FaultInjector::Mode::kThrow, 1.0, 0, /*transient=*/false});

  ShardedSurveyConfig cfg = sharded(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 5;
  ShardedSurveyEngine engine{std::move(cfg)};
  engine.run(quick_run(), kRounds, Duration::millis(500));

  EXPECT_TRUE(engine.degraded());
  // One attempt only: a deterministic failure would fail all five.
  EXPECT_EQ(engine.shard_attempts(0), 1);
  EXPECT_EQ(faults.fired("shard/0/run"), 1u);
}

TEST(TargetTimeout, InjectedTimeoutIsDeterministicAndShardInvariant) {
  const auto run_with_faults = [](std::size_t shards) {
    FaultInjector faults{5};
    // host-2's syn measurements: the first probe of that site fires, so
    // exactly one measurement times out, identically for any shard count
    // (the site is identity-qualified, not schedule-qualified).
    faults.arm({"target/host-2/test/syn", FaultInjector::Mode::kTargetTimeout, 1.0, 1, true});
    ShardedSurveyConfig cfg = sharded(shards);
    cfg.engine.faults = &faults;
    // The injected timeout runs the full measurement deadline in virtual
    // time; keep it short so the test stays fast.
    cfg.engine.measurement_deadline = Duration::seconds(30);
    ShardedSurveyEngine engine{std::move(cfg)};
    engine.run(quick_run(), kRounds, Duration::millis(500));
    return canonical_jsonl(engine);
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
  // Two survey runs over DISJOINT fleet slices, every target's stochastic
  // identity pinned explicitly so the combined run measures the exact
  // same worlds.
  const auto make_target = [](std::size_t i) {
    SurveyTargetConfig target;
    target.name = "m-" + std::to_string(i);
    target.address = tcpip::Ipv4Address::from_octets(10, 1, 0, static_cast<std::uint8_t>(10 + i));
    target.forward.swap_probability = (i % 2) * 0.13;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    const util::TargetSeeds seeds = util::ShardSeeder{99}.target(i);
    target.host_seed = seeds.host_seed;
    target.ipid_initial = seeds.ipid_initial;
    target.forward_path_tag = seeds.forward_tag;
    target.reverse_path_tag = seeds.reverse_tag;
    return target;
  };
  const auto run_slice = [&](std::size_t begin, std::size_t end) {
    ShardedSurveyConfig cfg;
    cfg.fleet.seed = 99;
    for (std::size_t i = begin; i < end; ++i) cfg.fleet.targets.push_back(make_target(i));
    cfg.shards = 2;
    cfg.threads = 2;
    ShardedSurveyEngine engine{std::move(cfg)};
    engine.run(quick_run(), kRounds, Duration::millis(500));
    return canonical_jsonl(engine);
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
