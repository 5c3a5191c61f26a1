// The survey service's headline guarantee, enforced: a fleet admitted
// continuously — in any order, any batch size, onto any number of
// work-stealing workers, stealing on or off — produces canonical merged
// JSONL and metric snapshots BYTE-IDENTICAL to the whole fleet run as ONE
// world on ONE event loop over the same fleet + seed. Plus the world
// runner's recovery path, live mid-run snapshots, checkpoint adoption
// across service generations, per-target retry/degraded accounting, and
// plan-error propagation through drain().
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/checkpoint.hpp"
#include "core/survey_world.hpp"
#include "report/sinks.hpp"
#include "service/survey_service.hpp"
#include "util/fault_injector.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::service {
namespace {

using util::Duration;

/// A heterogeneous nine-target fleet: clean, swapping and lossy paths,
/// plus a random-IPID host whose dual test is inadmissible — the merge
/// must reproduce failure records too.
std::vector<core::SurveyTargetConfig> nine_targets() {
  std::vector<core::SurveyTargetConfig> targets;
  for (int i = 0; i < 9; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 3) * 0.11;
    target.reverse.swap_probability = (i % 3) * 0.04;
    if (i == 4) target.forward.loss_probability = 0.02;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    if (i == 7) {
      target.remote.ipid_policy = tcpip::IpidPolicy::kRandom;
      target.tests = {core::TestSpec{"dual-connection"}, core::TestSpec{"syn"}};
    }
    targets.push_back(std::move(target));
  }
  return targets;
}

constexpr std::uint64_t kSeed = 7;
constexpr int kRounds = 2;

core::TestRunConfig quick_run() {
  core::TestRunConfig run;
  run.samples = 8;
  return run;
}

SurveyServiceConfig service_config(std::size_t workers, bool steal = true) {
  SurveyServiceConfig cfg;
  cfg.seed = kSeed;
  cfg.workers = workers;
  cfg.steal = steal;
  cfg.run = quick_run();
  cfg.rounds = kRounds;
  cfg.between = Duration::millis(500);
  return cfg;
}

std::string canonical_jsonl(SurveyService& service) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  service.emit_jsonl(writer);
  return text.str();
}

std::string snapshot_dump(const metrics::MetricEngine& engine) {
  auto keys = engine.keys();
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const auto& [target, test] : keys) {
    out += target + "/" + test + " n=" + std::to_string(engine.measurements(target, test)) +
           " adm=" + std::to_string(engine.admissible_measurements(target, test)) + " " +
           engine.suite(target, test)->to_json().dump() + "\n";
  }
  return out;
}

/// The reference everything byte-compares against.
struct Reference {
  std::string jsonl;
  std::string snapshots;
  core::SurveyEvent end{};
};

/// The whole fleet as ONE world on ONE event loop through the shared world
/// runner — every target pinned to its global index, the completion log
/// sorted into the canonical (target, test, at) order and emitted with
/// renumbered indices. An execution path independent of the per-target
/// worlds, the pool and the service's merge.
Reference one_world_reference(std::vector<core::SurveyTargetConfig> fleet) {
  const util::ShardSeeder seeder{kSeed};
  core::SurveyTestbedConfig world;
  world.seed = kSeed;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    core::pin_target_identity(fleet[i], i, seeder);
    world.targets.push_back(std::move(fleet[i]));
  }
  core::SurveyEngine::Options options;
  options.retain_samples = true;
  core::ShardRunResult run = core::run_survey_world(std::move(world), options, {}, quick_run(),
                                                    kRounds, Duration::millis(500));
  std::sort(run.log.begin(), run.log.end(),
            [](const core::Measurement& a, const core::Measurement& b) {
              return std::tie(a.target, a.test, a.at) < std::tie(b.target, b.test, b.at);
            });

  Reference out;
  out.end.targets = run.end.targets;
  out.end.at = run.end.at;
  out.end.rounds = kRounds;
  out.end.measurements = run.log.size();
  std::ostringstream text;
  report::JsonlWriter writer{text};
  report::JsonlResultSink sink{writer};
  sink.on_survey_begin(core::SurveyEvent{out.end.targets, kRounds, 0, util::TimePoint::epoch()});
  for (std::size_t i = 0; i < run.log.size(); ++i) {
    const core::Measurement& m = run.log[i];
    core::publish_result(sink, m.target, m.test, m.at, m.result, i);
  }
  sink.on_survey_end(out.end);
  run.metrics.emit_jsonl(writer, metrics::MetricEngine::EmitOrder::kCanonical);
  out.jsonl = text.str();
  out.snapshots = snapshot_dump(run.metrics);
  return out;
}

const Reference& reference() {
  static const Reference ref = one_world_reference(nine_targets());
  return ref;
}

TEST(SurveyService, MatchesTheOneWorldReferenceAcrossWorkersStealingAndAdmissionOrder) {
  const Reference& ref = reference();
  ASSERT_FALSE(ref.jsonl.empty());
  ASSERT_EQ(ref.end.measurements, 9u * 2u * kRounds);
  std::mt19937 shuffle_rng{1234};
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool steal : {true, false}) {
      // Shuffled single admissions with explicit global indices: identity
      // is the index, so neither placement nor arrival order may leak
      // into a byte of output.
      std::vector<std::size_t> order(9);
      std::iota(order.begin(), order.end(), 0u);
      std::shuffle(order.begin(), order.end(), shuffle_rng);
      SurveyService service{service_config(workers, steal)};
      const std::vector<core::SurveyTargetConfig> fleet = nine_targets();
      for (const std::size_t index : order) {
        EXPECT_EQ(service.admit(fleet[index], index), index);
      }
      service.drain();
      const std::string where =
          "workers=" + std::to_string(workers) + " steal=" + std::to_string(steal);
      EXPECT_EQ(canonical_jsonl(service), ref.jsonl) << where;
      EXPECT_EQ(snapshot_dump(service.metrics()), ref.snapshots) << where;
      EXPECT_EQ(service.survey_end().targets, ref.end.targets) << where;
      EXPECT_EQ(service.survey_end().at, ref.end.at) << where;
      EXPECT_EQ(service.survey_end().measurements, ref.end.measurements) << where;
      EXPECT_FALSE(service.degraded()) << where;
      if (!steal) {
        EXPECT_EQ(service.scheduler_stats().stolen, 0u) << where;
      }
    }
  }
}

TEST(SurveyService, BatchAdmissionMatchesTheReference) {
  SurveyService service{service_config(4)};
  const std::vector<std::size_t> indices = service.admit(nine_targets());
  ASSERT_EQ(indices.size(), 9u);
  EXPECT_EQ(indices.front(), 0u);
  EXPECT_EQ(indices.back(), 8u);
  service.drain();
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);

  // A sanity anchor: the survey measured something real.
  EXPECT_GT(service.metrics().aggregate("host-2", "single-connection", true).reordered, 0u);
  EXPECT_EQ(service.metrics().admissible_measurements("host-7", "dual-connection"), 0u)
      << "random IPIDs must rule the dual test out";
}

TEST(SurveyService, RepeatedEmissionAndDrainAreIdempotent) {
  SurveyService service{service_config(3)};
  service.admit(nine_targets());
  service.drain();
  const std::string first = canonical_jsonl(service);
  EXPECT_EQ(canonical_jsonl(service), first);
  service.drain();  // nothing pending: the merged results must not move
  EXPECT_EQ(canonical_jsonl(service), first);
  EXPECT_EQ(first, reference().jsonl);
}

TEST(SurveyService, MoreWorkersThanTargetsLeavesIdleWorkersHarmless) {
  SurveyService service{service_config(5)};
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();
  fleet.resize(2);
  service.admit(std::move(fleet));
  service.drain();
  EXPECT_EQ(service.measurements().size(), 2u * 2u * kRounds);
  EXPECT_EQ(service.survey_end().targets, 2u);
  EXPECT_EQ(service.snapshot().workers, 5u);
}

TEST(SurveyService, BatchSizeIsInvisibleInTheOutput) {
  for (const std::size_t batch : {1u, 2u, 4u, 9u}) {
    SurveyService service{service_config(3)};
    std::vector<core::SurveyTargetConfig> fleet = nine_targets();
    std::size_t admitted = 0;
    while (admitted < fleet.size()) {
      const std::size_t n = std::min(batch, fleet.size() - admitted);
      std::vector<core::SurveyTargetConfig> chunk;
      for (std::size_t i = 0; i < n; ++i) chunk.push_back(std::move(fleet[admitted + i]));
      service.admit(std::move(chunk));
      admitted += n;
    }
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), reference().jsonl) << "batch=" << batch;
  }
}

TEST(SurveyService, DefaultIdentityIsPinnedFromTheGlobalIndex) {
  // Targets admitted with identity fields unset get name, address and
  // seeds from their global index — the derivation pin_target_identity
  // applies to the one-world reference, so the outputs still byte-match.
  const auto strip = [](std::vector<core::SurveyTargetConfig> fleet) {
    for (auto& target : fleet) target.name.clear();
    return fleet;
  };
  const Reference ref = one_world_reference(strip(nine_targets()));
  SurveyService service{service_config(2)};
  service.admit(strip(nine_targets()));
  service.drain();
  EXPECT_EQ(canonical_jsonl(service), ref.jsonl);
  EXPECT_EQ(snapshot_dump(service.metrics()), ref.snapshots);
  EXPECT_NE(ref.jsonl.find("\"target\":\"target-8\""), std::string::npos);

  // A pinned target carries the GLOBAL index's derivation — index 2's
  // seeds, not a re-derivation for its position in some world.
  core::SurveyTargetConfig target;
  core::pin_target_identity(target, 2, util::ShardSeeder{kSeed});
  const util::TargetSeeds expected = util::ShardSeeder{kSeed}.target(2);
  EXPECT_EQ(target.name, core::default_target_name(2));
  EXPECT_EQ(target.address, core::default_target_address(2));
  EXPECT_EQ(target.host_seed, expected.host_seed);
  EXPECT_EQ(target.ipid_initial, expected.ipid_initial);
  EXPECT_EQ(target.forward_path_tag, expected.forward_tag);
  EXPECT_EQ(target.reverse_path_tag, expected.reverse_tag);
}

TEST(SurveyWorld, TornDownMidRunWorldReproducesBitIdentically) {
  const util::ShardSeeder seeder{kSeed};
  core::SurveyTestbedConfig world;
  world.seed = kSeed;
  for (std::size_t i : {1u, 4u, 7u}) {
    core::SurveyTargetConfig target = nine_targets()[i];
    core::pin_target_identity(target, i, seeder);
    world.targets.push_back(std::move(target));
  }

  // A world dies mid-survey: build it, drive it partway, tear it down.
  // Nothing of it survives anywhere...
  {
    core::SurveyTestbed casualty{world};
    core::SurveyEngine partial{casualty.loop()};
    casualty.populate(partial);
    partial.start(quick_run(), kRounds, Duration::millis(500));
    casualty.loop().run_until(util::TimePoint::from_ns(2'000'000'000));
    ASSERT_TRUE(partial.running()) << "tear-down must interrupt a live survey";
  }

  // ...so running the world again from its config reproduces it
  // bit-for-bit (the recovery path is "just run it again").
  core::SurveyEngine::Options options;
  options.retain_samples = true;
  const auto run = [&] {
    return core::run_survey_world(world, options, {}, quick_run(), kRounds,
                                  Duration::millis(500));
  };
  const core::ShardRunResult again = run();
  const core::ShardRunResult fresh = run();
  EXPECT_EQ(snapshot_dump(again.metrics), snapshot_dump(fresh.metrics));
  ASSERT_EQ(again.log.size(), fresh.log.size());
  for (std::size_t i = 0; i < again.log.size(); ++i) {
    EXPECT_EQ(again.log[i].target, fresh.log[i].target);
    EXPECT_EQ(again.log[i].test, fresh.log[i].test);
    EXPECT_EQ(again.log[i].at, fresh.log[i].at);
    EXPECT_EQ(again.log[i].result.forward.reordered, fresh.log[i].result.forward.reordered);
    EXPECT_EQ(again.log[i].result.samples.size(), fresh.log[i].result.samples.size());
  }
  EXPECT_EQ(again.end.at, fresh.end.at);
}

TEST(SurveyService, LiveSnapshotsMidRunDoNotPerturbTheOutput) {
  SurveyService service{service_config(2)};
  std::atomic<bool> running{true};
  std::atomic<std::size_t> snapshots_taken{0};
  // A reader hammering the live view concurrently with execution: the
  // fold must neither tear (counts are per-slot-consistent) nor perturb
  // a single output byte.
  std::thread reader{[&] {
    while (running.load()) {
      const SurveyService::Snapshot snap = service.snapshot();
      EXPECT_LE(snap.completed, snap.admitted);
      // Bound against the full fleet, not snap.admitted: the slot fold
      // happens after the counter reads, so completions that land in
      // between may show up in measurements first.
      EXPECT_LE(snap.measurements, 9u * 2u * kRounds);
      snapshots_taken.fetch_add(1);
    }
  }};
  // Admit only once the reader is live: a fleet this small drains in a
  // few milliseconds, which a reader scheduled late would miss entirely.
  while (snapshots_taken.load() == 0) std::this_thread::yield();
  service.admit(nine_targets());
  service.drain();
  running.store(false);
  reader.join();
  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);

  const SurveyService::Snapshot final_snap = service.snapshot();
  EXPECT_EQ(final_snap.admitted, 9u);
  EXPECT_EQ(final_snap.completed, 9u);
  EXPECT_EQ(final_snap.in_flight, 0u);
  EXPECT_EQ(final_snap.measurements, reference().end.measurements);
  EXPECT_EQ(final_snap.virtual_end, reference().end.at);
  EXPECT_EQ(snapshot_dump(final_snap.metrics), reference().snapshots);
}

TEST(SurveyService, SnapshotJsonCarriesTheServiceSchema) {
  SurveyService service{service_config(2)};
  service.admit(nine_targets());
  service.drain();
  const report::Json j = service.snapshot().to_json();
  EXPECT_EQ(j.at("type").as_string(), "service_snapshot");
  EXPECT_EQ(j.at("admitted").as_u64(), 9u);
  EXPECT_EQ(j.at("completed").as_u64(), 9u);
  EXPECT_EQ(j.at("failed").as_u64(), 0u);
  EXPECT_EQ(j.at("in_flight").as_u64(), 0u);
  EXPECT_EQ(j.at("measurements").as_u64(), reference().end.measurements);
  EXPECT_EQ(j.at("workers").as_u64(), 2u);
  EXPECT_FALSE(j.at("degraded").as_bool());
  EXPECT_TRUE(j.contains("steals"));
  EXPECT_TRUE(j.contains("steal_attempts"));
  EXPECT_TRUE(j.contains("jobs_executed"));
  EXPECT_TRUE(j.contains("metric_keys"));
  EXPECT_TRUE(j.contains("virtual_end_ns"));
  // One line of valid JSON — round-trips through the parser.
  EXPECT_TRUE(report::Json::parse(j.dump()).has_value());
}

TEST(SurveyService, CheckpointAdoptionAcrossServiceGenerations) {
  const std::string path = testing::TempDir() + "survey_service_ckpt.jsonl";
  std::remove(path.c_str());
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();

  // Generation 1 admits only part of the fleet, drains, and dies.
  {
    SurveyServiceConfig cfg = service_config(2);
    cfg.checkpoint_path = path;
    SurveyService service{cfg};
    for (std::size_t i = 0; i < 5; ++i) service.admit(fleet[i], i);
    service.drain();
    service.stop();
  }
  const core::SurveyCheckpoint recorded = core::SurveyCheckpoint::load(path);
  EXPECT_EQ(recorded.completed_count(), 5u);
  ASSERT_TRUE(recorded.header().has_value());
  EXPECT_EQ(recorded.header()->shards, 0u) << "service checkpoints carry the 0 marker";
  EXPECT_EQ(recorded.header()->seed, kSeed);

  // Generation 2 restores, admits the WHOLE fleet: recorded targets are
  // adopted (attempts == 0), the rest execute, and the merged output is
  // byte-identical to an uninterrupted run.
  {
    SurveyServiceConfig cfg = service_config(2);
    cfg.checkpoint_path = path;
    SurveyService service{cfg};
    service.restore(core::SurveyCheckpoint::load(path));
    service.admit(nine_targets());
    service.drain();
    EXPECT_EQ(service.attempts(0), 0) << "adopted, not re-run";
    EXPECT_EQ(service.attempts(8), 1);
    EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
    EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
    service.stop();
  }
  // The new generation's checkpoint re-recorded the adopted targets too.
  EXPECT_EQ(core::SurveyCheckpoint::load(path).completed_count(), 9u);
  std::remove(path.c_str());
}

TEST(SurveyService, RestoreRejectsAMismatchedOrShardKeyedCheckpoint) {
  core::SurveyCheckpoint wrong_seed;
  wrong_seed.set_header(core::SurveyCheckpoint::Header{0, 9, kRounds, kSeed + 1});
  core::SurveyCheckpoint shard_keyed;
  shard_keyed.set_header(core::SurveyCheckpoint::Header{3, 9, kRounds, kSeed});

  SurveyService service{service_config(1)};
  EXPECT_THROW(service.restore(wrong_seed), std::invalid_argument);
  EXPECT_THROW(service.restore(shard_keyed), std::invalid_argument);
  service.admit(nine_targets()[0], 0);
  EXPECT_THROW(service.restore(core::SurveyCheckpoint{}), std::logic_error)
      << "restore must precede admission";
  service.drain();
}

TEST(SurveyService, TransientFailuresRetryToTheSameBytes) {
  util::FaultInjector faults{17};
  // Target 3's world dies twice before its run and once after (the
  // completed-but-unharvested class); the third run attempt succeeds.
  faults.arm({"shard/3/run", util::FaultInjector::Mode::kThrow, 1.0, 2, true});
  faults.arm({"shard/3/abort", util::FaultInjector::Mode::kShardAbort, 1.0, 1, true});

  SurveyServiceConfig cfg = service_config(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 5;
  cfg.retry.initial_backoff = std::chrono::milliseconds(1);
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();
  EXPECT_EQ(service.attempts(3), 4) << "two pre-run faults + one abort + success";
  EXPECT_EQ(service.attempts(2), 1);
  EXPECT_FALSE(service.degraded());
  // Retries are invisible in the output: same bytes as the fault-free run.
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
  EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
}

TEST(SurveyService, ExhaustedRetriesDegradeWithFullFleetAccounting) {
  util::FaultInjector faults{17};
  faults.arm({"shard/4/run", util::FaultInjector::Mode::kThrow, 1.0, 0, true});

  SurveyServiceConfig cfg = service_config(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff = std::chrono::milliseconds(1);
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();

  EXPECT_TRUE(service.degraded());
  ASSERT_EQ(service.failed_target_indices().size(), 1u);
  EXPECT_EQ(service.failed_target_indices()[0], 4u);
  EXPECT_EQ(service.attempts(4), 2);
  ASSERT_EQ(service.failure_messages().size(), 1u);
  EXPECT_NE(service.failure_messages()[0].find("shard/4/run"), std::string::npos);
  EXPECT_EQ(service.survey_end().targets, 8u) << "participants only";
  EXPECT_EQ(service.survey_end().failed_shards, 1u);

  const auto manifest = service.participation();
  ASSERT_EQ(manifest.size(), 9u);
  for (const auto& [name, participated] : manifest) {
    EXPECT_EQ(participated, name != "host-4") << name;
  }
  // The degraded stream ends with the participation record.
  const std::string jsonl = canonical_jsonl(service);
  EXPECT_NE(jsonl.find("\"type\":\"participation\""), std::string::npos);
  EXPECT_NE(jsonl.find("{\"target\":\"host-4\",\"participated\":false}"), std::string::npos);

  const SurveyService::Snapshot snap = service.snapshot();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_TRUE(snap.degraded);
}

TEST(SurveyService, PlanErrorsSurfaceAtDrainNotAsDegradation) {
  SurveyService service{service_config(2)};
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();
  core::SurveyTargetConfig typo;
  typo.name = "typo-host";
  typo.tests = {core::TestSpec{"no-such-technique"}};
  service.admit(fleet[0], 0);
  service.admit(typo, 9);
  EXPECT_THROW(service.drain(), std::invalid_argument);
  // The plan error is consumed by the throwing drain; the healthy
  // target's results remain readable.
  service.drain();
  EXPECT_EQ(service.completed(), 1u);
  EXPECT_EQ(service.metrics().measurements("host-0", "syn"),
            static_cast<std::uint64_t>(kRounds));
}

TEST(SurveyService, ResultsAreGatedOnQuiescence) {
  // A suite factory that blocks the first world until released: while it
  // holds the worker, the service is demonstrably busy and the merged
  // accessors must refuse rather than hand out a torn view.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SurveyServiceConfig cfg = service_config(2);
  cfg.suite_factory = [released](std::string_view target, std::string_view test) {
    released.wait();
    return metrics::default_suite(target, test);
  };
  SurveyService service{cfg};
  service.admit(nine_targets()[0], 0);
  EXPECT_THROW(service.metrics(), std::logic_error);
  EXPECT_THROW(service.measurements(), std::logic_error);
  EXPECT_THROW(canonical_jsonl(service), std::logic_error);
  release.set_value();
  service.drain();
  EXPECT_NO_THROW(service.metrics());
}

TEST(SurveyService, AdmissionRejectsIdentityCollisionsFleetWide) {
  SurveyService service{service_config(1)};
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();
  service.admit(fleet[0], 0);
  EXPECT_THROW(service.admit(fleet[0], 5), std::invalid_argument) << "duplicate name";
  core::SurveyTargetConfig clone = fleet[1];
  clone.name = "unique-name";
  clone.address = core::default_target_address(0);
  EXPECT_THROW(service.admit(clone, 6), std::invalid_argument) << "duplicate address";
  EXPECT_THROW(service.admit(fleet[2], 0), std::invalid_argument) << "duplicate index";
  // An explicit name colliding with another target's pinned default is
  // the sneaky variant of the same bug.
  core::SurveyTargetConfig unnamed = fleet[3];
  unnamed.name.clear();  // becomes "target-3"
  EXPECT_EQ(service.admit(unnamed, 3), 3u);
  core::SurveyTargetConfig sneaky = fleet[4];
  sneaky.name = core::default_target_name(3);
  EXPECT_THROW(service.admit(sneaky, 4), std::invalid_argument) << "name of a default";
  service.drain();
  EXPECT_EQ(service.admitted(), 2u);
}

TEST(SurveyService, StopRetiresTheServiceButKeepsResultsReadable) {
  SurveyService service{service_config(2)};
  service.admit(nine_targets());
  service.stop();
  EXPECT_THROW(service.admit(nine_targets()[0]), std::logic_error);
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
  const SurveyService::Snapshot snap = service.snapshot();
  EXPECT_EQ(snap.completed, 9u);
  EXPECT_EQ(snap.workers, 2u) << "scheduler identity preserved across stop";
  EXPECT_EQ(service.scheduler_stats().executed, 9u);
}

}  // namespace
}  // namespace reorder::service
