// survey_fleet: the paper's §IV-B continuous survey at fleet scale — many
// target hosts, each behind its own emulated path, measured concurrently
// on ONE event loop by the async SurveyEngine. Where `survey` builds a
// fresh single-host world per path and measures them one after another,
// this is the production shape: per-target state machines interleave
// their measurement cycles in a single virtual timeline, so a slow or
// lossy target never stalls the rest of the fleet.
//
// Results STREAM: a live ResultSink narrates completions as they land
// (watch the targets interleave), and --jsonl=PATH attaches a second
// sink that writes every event as JSON Lines, in completion order.
//
// Every target's identity is pinned to its global index
// (core::pin_target_identity), so this loop measures exactly the worlds
// `survey_service` runs over the same --seed; parallel, checkpointed and
// resumable runs are that daemon's job.
//
//   $ survey_fleet --targets=8 --rounds=4 --samples=15 --seed=11
//   $ survey_fleet --targets=64 --jsonl=fleet.jsonl
#include <cstdio>
#include <fstream>
#include <optional>

#include "core/survey_testbed.hpp"
#include "core/survey_world.hpp"
#include "report/sinks.hpp"
#include "report/table.hpp"
#include "stats/ecdf.hpp"
#include "util/flags.hpp"
#include "util/random.hpp"

namespace {

using namespace reorder;

}  // namespace

int main(int argc, char** argv) {
  using util::Duration;

  std::int64_t targets = 8;
  std::int64_t rounds = 4;
  std::int64_t samples = 15;
  std::int64_t seed = 11;
  std::int64_t narrate_every = -1;
  double reordering_fraction = 0.5;
  std::string jsonl_path;

  util::Flags flags{"survey_fleet", "concurrent multi-target reordering survey"};
  flags.add_i64("targets", &targets, "number of hosts surveyed concurrently");
  flags.add_i64("rounds", &rounds, "measurement cycles per host");
  flags.add_i64("samples", &samples, "samples per measurement (paper: 15)");
  flags.add_i64("seed", &seed, "population seed");
  flags.add_i64("narrate-every", &narrate_every,
                "narrate every Nth completion (0 = quiet, -1 = auto: full detail up to "
                "10k targets, sampled above)");
  flags.add_double("reordering-fraction", &reordering_fraction,
                   "fraction of paths that reorder at all");
  flags.add_string("jsonl", &jsonl_path, "stream every survey event to this JSONL file");
  if (!flags.parse(argc, argv)) return 1;
  if (targets < 1 || rounds < 1 || samples < 1) {
    std::fprintf(stderr, "survey_fleet: --targets/--rounds/--samples must be >= 1\n");
    return 1;
  }

  // Draw a host population: some clean paths, some reordering ones.
  util::Rng population{static_cast<std::uint64_t>(seed)};
  std::vector<double> true_fwd(static_cast<std::size_t>(targets), 0.0);
  core::SurveyTestbedConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  const util::ShardSeeder seeder{cfg.seed};
  for (std::int64_t i = 0; i < targets; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    if (population.bernoulli(reordering_fraction)) {
      true_fwd[static_cast<std::size_t>(i)] = std::min(0.35, population.exponential(0.08));
      target.forward.swap_probability = true_fwd[static_cast<std::size_t>(i)];
      target.reverse.swap_probability =
          true_fwd[static_cast<std::size_t>(i)] * population.uniform(0.1, 0.6);
    }
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    core::pin_target_identity(target, static_cast<std::size_t>(i), seeder);
    cfg.targets.push_back(std::move(target));
  }
  core::TestRunConfig run;
  run.samples = static_cast<int>(samples);

  core::SurveyTestbed bed{std::move(cfg)};

  core::SurveyEngine engine{bed.loop()};
  bed.populate(engine);

  // Attach the streaming consumers before the survey starts.
  report::NarratingSink narrator{report::NarrationPolicy::from_flag(
      narrate_every, bed.target_count(), 2 * bed.target_count())};
  engine.add_sink(narrator);
  std::ofstream jsonl_file;
  std::optional<report::JsonlWriter> jsonl_writer;
  std::optional<report::JsonlResultSink> jsonl_sink;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonl_path.c_str());
      return 1;
    }
    jsonl_writer.emplace(jsonl_file);
    jsonl_sink.emplace(*jsonl_writer);
    engine.add_sink(*jsonl_sink);
  }

  engine.run(run, static_cast<int>(rounds), Duration::seconds(1));

  // Per-target summaries are snapshot reads of the engine's metric
  // accumulators (updated mid-survey, in event-loop order).
  report::Table table =
      report::Table::with_headers({"target", "true fwd", "single-conn", "syn"});
  stats::Ecdf fwd_rates;
  int reordering_paths = 0;
  for (std::size_t i = 0; i < bed.target_count(); ++i) {
    const std::string& name = bed.target_name(i);
    const auto single = engine.aggregate(name, "single-connection", /*forward=*/true);
    const auto syn = engine.aggregate(name, "syn", /*forward=*/true);
    core::ReorderEstimate pooled;
    pooled += single;
    pooled += syn;
    fwd_rates.add(pooled.rate_or(0.0));
    if (pooled.reordered > 0) ++reordering_paths;
    table.row({name, report::fixed(true_fwd[i], 3), report::fixed(single.rate_or(0.0), 3),
               report::fixed(syn.rate_or(0.0), 3)});
  }
  table.print();

  const auto& ms = engine.measurements();
  std::printf("\nmeasurements taken: %zu  (%lld targets x %lld rounds x 2 tests)\n", ms.size(),
              static_cast<long long>(targets), static_cast<long long>(rounds));
  std::printf("virtual survey duration: %.1fs  (one blocking pass would serialize %zu "
              "measurements end to end)\n",
              bed.loop().now().seconds_f(), ms.size());
  std::printf("paths with observed reordering: %d / %lld\n", reordering_paths,
              static_cast<long long>(targets));
  std::printf("median measured forward rate: %.4f\n", fwd_rates.quantile(0.5));
  if (jsonl_writer.has_value()) {
    // Close the stream with the engine's per-(target, test) metric
    // snapshots — the JSONL `metrics` record type.
    engine.metrics().emit_jsonl(*jsonl_writer);
    std::printf("streamed %zu JSONL records to %s\n", jsonl_writer->lines_written(),
                jsonl_path.c_str());
  }
  return 0;
}
