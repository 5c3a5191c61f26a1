// Shared plumbing of the benchmark's workloads: options, the outcome a
// workload reports, the seeded input generator, and the timing helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed{1};
  /// Wall seconds of timed passes (a traced run splits them between an
  /// untraced and a traced phase).
  double seconds{10.0};
  bool trace{false};
  /// Self-test sizes: every path runs, in well under a second.
  bool tiny{false};
  /// Self-test: hand the program a deliberately corrupted input so the
  /// oracle must report a mismatch.
  bool corrupt{false};
  /// Where checkpoints, JSONL artifacts and the Chrome trace are written.
  std::string out_dir{"."};
};

struct Outcome {
  /// Units of work attempted in timed passes, and how many failed (dropped
  /// arrivals, failed targets).
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Oracle mismatches and broken invariants; empty means correct.
  std::vector<std::string> errors;

  /// Units of work per CPU second of the process: the median of the timed
  /// passes' rates.
  double throughput_per_s{0.0};
  double setup_s{0.0};
  double peak_rss_mb{0.0};
  /// Per-layer metrics by name (traced runs); unset ones print as 0.
  std::map<std::string, double> layer;
};

Outcome run_ingest_coalesced(const Options& opt);
Outcome run_ingest_churn(const Options& opt);
Outcome run_survey_lean(const Options& opt);
Outcome run_survey_durable(const Options& opt);

/// A bijective 64-bit mix: distinct inputs give distinct flow ids.
std::uint64_t mix64(std::uint64_t x);

/// splitmix64 stream: the benchmark renders every input with its own
/// generator, so no change under src/ can change the traffic it measures.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool bernoulli(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

double wall_s_since(std::int64_t start_ns);
/// Process CPU seconds: every thread, live or exited, user + system. Time
/// the hypervisor gives another machine (steal) is not in it.
double process_cpu_s();
/// Restarts the peak-resident-set count from the current resident set.
void reset_peak_rss();
/// Peak resident set in MB since the last reset_peak_rss().
double peak_rss_mb();
double file_mb(const std::string& path);
std::string read_file(const std::string& path);

/// Every timed phase runs at least this many passes.
inline constexpr int kMinPasses = 5;

/// Calls pass() until `seconds` of wall time have elapsed and at least
/// kMinPasses passes ran.
template <typename Pass>
void run_passes(double seconds, Pass&& pass) {
  const std::int64_t start = now_ns();
  for (int n = 0; n < kMinPasses || wall_s_since(start) < seconds; ++n) pass();
}

/// Runs `body` in a child forked from this process and returns the bytes it
/// returned there; waits for the child to exit. The caller must have no
/// other threads. The child starts from this process's state and its
/// effects on memory die with it, so every call starts from the same state.
/// Throws when the child does not finish cleanly.
std::string run_in_child(const std::function<std::string()>& body);

/// Set-up is timed this many times per run and its median reported, so one
/// slow repetition does not move it.
inline constexpr int kSetupRepeats = 5;
/// Wall seconds of untimed set-ups before the timed ones.
inline constexpr double kHostWarmupS = 2.0;

/// Times `set_up` in kSetupRepeats child processes, forked one after
/// another after kHostWarmupS of untimed ones, and returns the median of
/// their wall seconds. Call it before the workload has done anything in
/// this process, while it has one thread: each child then starts from the
/// state a fresh run starts from, so a cost paid once per process (a
/// first-use table, allocator growth, thread start-up) lands in every
/// repetition rather than only the first. Throws when a child does not
/// finish cleanly.
double forked_setup_s(const std::function<void()>& set_up);

}  // namespace perfbench
