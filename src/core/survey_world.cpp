#include "core/survey_world.hpp"

#include <utility>

namespace reorder::core {

namespace {

/// Captures the survey_end marker a world's engine publishes.
class EndCapture final : public ResultSink {
 public:
  void on_survey_end(const SurveyEvent& e) override { end = e; }
  SurveyEvent end{};
};

}  // namespace

void pin_target_identity(SurveyTargetConfig& target, std::size_t index,
                         const util::ShardSeeder& seeder) {
  if (target.name.empty()) target.name = default_target_name(index);
  if (target.address == tcpip::Ipv4Address{}) target.address = default_target_address(index);
  const util::TargetSeeds seeds = seeder.target(index);
  if (!target.host_seed) target.host_seed = seeds.host_seed;
  if (!target.ipid_initial) target.ipid_initial = seeds.ipid_initial;
  if (!target.forward_path_tag) target.forward_path_tag = seeds.forward_tag;
  if (!target.reverse_path_tag) target.reverse_path_tag = seeds.reverse_tag;
}

ShardRunResult run_survey_world(SurveyTestbedConfig world, const SurveyEngine::Options& options,
                                const metrics::SuiteFactory& suite_factory,
                                const TestRunConfig& run, int rounds, util::Duration between) {
  SurveyTestbed bed{std::move(world)};
  SurveyEngine engine{bed.loop(), options};
  bed.populate(engine);

  // A custom suite factory feeds a side engine through the sink stream —
  // the embedded store engine keeps the standard suite either way.
  metrics::MetricEngine custom{suite_factory ? suite_factory
                                             : metrics::SuiteFactory{&metrics::default_suite}};
  metrics::EngineSink custom_sink{custom};
  if (suite_factory) engine.add_sink(custom_sink);

  EndCapture end;
  engine.add_sink(end);

  engine.run(run, rounds, between);

  ShardRunResult out;
  out.log = engine.release_measurements();
  // A bit-exact copy of the accumulators (merge into an empty engine is
  // the contract's deep copy), taken before the world dies.
  out.metrics.merge(suite_factory ? custom : engine.metrics());
  out.end = end.end;
  return out;
}

}  // namespace reorder::core
