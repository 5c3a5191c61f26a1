// One survey world — the unit every fleet survey executes, the paper's
// §IV survey shape made reproducible per target.
//
// A world is a complete simulation of its own: one sim::EventLoop, one
// SurveyTestbed (probe + the world's targets + their paths), one
// SurveyEngine and its metric accumulators. Worlds share NO mutable
// state, so any number of them run concurrently with no locks in the
// simulation hot path (service::SurveyService runs one world per admitted
// target on its work-stealing pool).
//
// Determinism across placements comes from two pieces kept here, once:
//
//   1. pin_target_identity() fixes every target's stochastic identity
//      (host RNG, IPID origin, per-path-stage RNG tags) from its GLOBAL
//      fleet index through util::ShardSeeder, so the same target replays
//      the same random streams whichever world it lands in.
//   2. run_survey_world() drives one world to completion and hands back
//      its completion log, a bit-exact copy of its accumulators and its
//      survey_end marker. Targets interact only with their own paths and
//      flows, so a target's results are identical whether its world holds
//      it alone or the whole fleet on one loop (the survey-engine
//      concurrent-vs-sequential equivalence test pins that property).
#pragma once

#include <cstddef>
#include <vector>

#include "core/survey_engine.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::core {

/// What one world's run leaves behind — the unit a fleet merge consumes
/// and the checkpoint's recovery unit: a world torn down mid-run left no
/// residue outside itself, so running it again reproduces this
/// bit-for-bit.
struct ShardRunResult {
  /// The world's identity in its checkpoint (the service uses the
  /// target's global index).
  std::size_t shard{0};
  /// The world's completion log, in its loop's completion order.
  std::vector<Measurement> log;
  /// Bit-exact copy of the world's metric accumulators.
  metrics::MetricEngine metrics;
  /// The world's survey_end marker (participants + final virtual time).
  SurveyEvent end{};
};

/// Pins the identity of the target at fleet index `index`: an unset name
/// or address takes the index's default (default_target_name /
/// default_target_address), unset seeds take `seeder`'s derivation for
/// the index. Explicit values a caller already set are theirs to keep.
void pin_target_identity(SurveyTargetConfig& target, std::size_t index,
                         const util::ShardSeeder& seeder);

/// Builds `world` and runs its survey — (run, rounds, between) against
/// every target — to completion on the calling thread. `options` pass to
/// the world's SurveyEngine as given (set retain_samples to keep sample
/// payloads in the log). A non-null `suite_factory` replaces the standard
/// metric suite in the returned accumulators. Pure: no state outside the
/// returned result.
ShardRunResult run_survey_world(SurveyTestbedConfig world, const SurveyEngine::Options& options,
                                const metrics::SuiteFactory& suite_factory,
                                const TestRunConfig& run, int rounds, util::Duration between);

}  // namespace reorder::core
