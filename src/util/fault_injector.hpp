// Deterministic, seeded fault injection for the survey runtime.
//
// The paper's survey ran against thousands of uncooperative real hosts,
// where timeouts, rate limiting and mid-run process death are the normal
// case — so the runtime's failure handling has to be TESTABLE, and a
// failure scenario that cannot be replayed from a seed cannot be
// debugged. A FaultInjector is a registry of fault PLANS keyed by site
// string; code under test declares fault POINTS by calling should_fire()
// / maybe_throw() with its site, and whether hit #k of a site fires is a
// pure function of (injector seed, site string, k) via a splitmix64
// chain — never of thread schedule or wall clock. Re-running with the
// same seed reproduces the exact failure sequence, which is what the
// fault-injection determinism tests pin.
//
// Sites are hierarchical slash-paths carrying the caller's identity
// ("shard/3/run", "target/host-2/test/syn", "jsonl/write"); plans match
// a site exactly or by prefix ("shard/" arms every shard). Keying the
// decision on identity-qualified sites (plus the per-site hit counter)
// keeps the firing sequence deterministic even when many shards probe
// their sites concurrently from pool threads.
//
// The four modes mirror the survey's real failure classes:
//   kThrow            a transient infrastructure error (util::InjectedFault)
//   kShardAbort       a whole target world dies mid-run (transient: the
//                     survey service retries it with backoff)
//   kTargetTimeout    one target never answers: the measurement is
//                     recorded inadmissible at its deadline
//   kSinkWriteFailure the JSONL emit path's stream write fails
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace reorder::util {

/// FNV-1a over bytes: the stable string hash fault-site decisions and
/// checkpoint record checksums key on. An on-disk contract (recorded
/// checkpoints must verify across versions) — do not change constants.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = 0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The exception every injected throw-class fault raises. `transient`
/// separates the retry classes: transient faults (infrastructure: a shard
/// worker died, a write failed) are retried with backoff; deterministic
/// ones (a config error would fail identically every attempt) are not.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& site, std::uint64_t hit, bool transient_fault)
      : std::runtime_error{"injected fault at '" + site + "' (hit " + std::to_string(hit) + ")"},
        site_{site},
        hit_{hit},
        transient_{transient_fault} {}

  const std::string& site() const { return site_; }
  std::uint64_t hit() const { return hit_; }
  bool transient() const { return transient_; }

 private:
  std::string site_;
  std::uint64_t hit_{0};
  bool transient_;
};

class FaultInjector {
 public:
  enum class Mode {
    kThrow,
    kShardAbort,
    kTargetTimeout,
    kSinkWriteFailure,
  };

  /// One armed fault: fire at matching sites with `probability` per hit
  /// (1.0 = every hit), at most `max_fires` times (0 = unlimited).
  struct Plan {
    std::string site;      ///< exact site, or a prefix ending in '/'
    Mode mode{Mode::kThrow};
    double probability{1.0};
    std::uint64_t max_fires{0};
    bool transient{true};  ///< retry class carried by the raised fault
  };

  /// One fault that actually fired — the replayable failure sequence.
  struct Firing {
    std::string site;
    Mode mode;
    std::uint64_t hit{0};
  };

  explicit FaultInjector(std::uint64_t seed) : seed_{seed} {}

  std::uint64_t seed() const { return seed_; }

  FaultInjector& arm(Plan plan) {
    std::lock_guard lock{mutex_};
    plans_.push_back(std::move(plan));
    return *this;
  }

  /// Does hit #next of `site` fire a plan of `mode`? Deterministic in
  /// (seed, site, per-site hit index); advances the site's hit counter
  /// whether or not anything fires, so un-armed runs and armed runs see
  /// identical counter streams.
  bool should_fire(std::string_view site, Mode mode);

  /// should_fire(site, mode) that raises the InjectedFault itself (with
  /// the firing plan's transient class) — the one-liner fault point for
  /// sites whose failure manifests as an exception.
  void maybe_throw(std::string_view site, Mode mode = Mode::kThrow);

  /// Every fault fired so far, in firing order (per site deterministic;
  /// cross-site order reflects call order). The determinism tests compare
  /// this log across reruns of the same seed.
  std::vector<Firing> firings() const {
    std::lock_guard lock{mutex_};
    return firings_;
  }

  /// Fired-count for one site (any mode).
  std::uint64_t fired(std::string_view site) const;

  /// Resets hit counters and the firing log (plans stay armed) — so one
  /// injector can drive run-after-run comparisons.
  void reset();

 private:
  struct SiteState {
    std::string site;
    std::uint64_t hits{0};
  };

  SiteState& state(std::string_view site);
  /// Advances `site`'s hit counter and returns the plan the hit fires
  /// under (logging the firing), or nullptr. Caller holds mutex_.
  const Plan* fire_locked(std::string_view site, Mode mode, std::uint64_t* hit_out);

  std::uint64_t seed_;
  mutable std::mutex mutex_;
  std::vector<Plan> plans_;
  std::vector<SiteState> sites_;
  std::vector<Firing> firings_;
};

}  // namespace reorder::util
