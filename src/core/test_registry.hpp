// Registry-driven construction of measurement techniques (paper §III).
//
// A TestSpec names a technique, a target port and optional technique
// options; TestRegistry maps technique names to factories with the
// canonical signature (ProbeHost&, Ipv4Address, const TestSpec&). Every
// technique instantiation in examples/, bench/ and tests/ goes through
// here, so adding a technique (or a variant) is one registration instead
// of twenty call-site edits — and unknown names are a hard error instead
// of a silent fallback.
//
// Thread safety: the registry is shared process state (global() is the
// one instance everything uses) and the survey service builds
// test suites from worker threads, so every lookup and registration
// takes an internal mutex. The global() instance itself is initialized
// exactly once (C++ static-local guarantee). Factories run OUTSIDE the
// lock — a slow constructor must not serialize other workers' lookups —
// and technique names resolved by canonical_name() stay valid forever
// (registrations are insert-only into node-based maps).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/data_transfer_test.hpp"
#include "core/dual_connection_test.hpp"
#include "core/ping_burst_test.hpp"
#include "core/reorder_test.hpp"
#include "core/single_connection_test.hpp"
#include "core/syn_test.hpp"
#include "probe/probe_host.hpp"

namespace reorder::core {

/// Technique-specific options carried by a TestSpec; monostate selects the
/// technique's defaults.
using TestOptions = std::variant<std::monostate, SingleConnectionOptions, DualConnectionOptions,
                                 SynTestOptions, DataTransferOptions, PingBurstOptions>;

/// Declarative description of one technique instantiation.
struct TestSpec {
  std::string technique{"single-connection"};
  /// Target port; 0 selects the technique's conventional port (the discard
  /// port for the probe tests, 80 for the data transfer).
  std::uint16_t port{0};
  TestOptions options{};

  TestSpec() = default;
  explicit TestSpec(std::string technique_name, std::uint16_t target_port = 0,
                    TestOptions technique_options = {})
      : technique{std::move(technique_name)},
        port{target_port},
        options{std::move(technique_options)} {}
};

class TestRegistry {
 public:
  /// The canonical factory signature every technique registers under.
  using Factory = std::function<std::unique_ptr<ReorderTest>(
      probe::ProbeHost&, tcpip::Ipv4Address, const TestSpec&)>;

  void register_technique(const std::string& name, Factory factory);
  /// Short name (e.g. "single") resolving to a registered technique.
  void register_alias(const std::string& alias, const std::string& canonical);

  /// True for canonical names and aliases alike.
  bool contains(const std::string& name) const;

  /// Resolves aliases to the canonical technique name. Throws
  /// std::invalid_argument (listing the known techniques) on unknown names.
  const std::string& canonical_name(const std::string& name) const;

  /// Canonical technique names, sorted.
  std::vector<std::string> technique_names() const;

  /// Builds `spec` against `target`. Throws std::invalid_argument on an
  /// unknown technique name or mismatched options.
  std::unique_ptr<ReorderTest> create(probe::ProbeHost& host, tcpip::Ipv4Address target,
                                      const TestSpec& spec) const;

  /// create(), downcast to the concrete technique type — for call sites
  /// that need technique-specific accessors (e.g. DualConnectionTest::
  /// last_validation). Throws std::invalid_argument on a type mismatch.
  template <typename T>
  std::unique_ptr<T> create_as(probe::ProbeHost& host, tcpip::Ipv4Address target,
                               const TestSpec& spec) const {
    auto base = create(host, target, spec);
    if (auto* typed = dynamic_cast<T*>(base.get())) {
      base.release();
      return std::unique_ptr<T>{typed};
    }
    throw std::invalid_argument{"TestRegistry: technique '" + spec.technique +
                                "' is not of the requested concrete type"};
  }

  /// The process-wide registry, pre-loaded with the paper's techniques:
  /// single-connection (+ the in-order variant), dual-connection, syn,
  /// data-transfer, and the ping-burst baseline.
  static TestRegistry& global();

 private:
  const std::string& canonical_name_locked(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
  std::map<std::string, std::string> aliases_;
};

/// Convenience: builds `spec` against `target` via the global registry.
std::unique_ptr<ReorderTest> make_registered_test(probe::ProbeHost& host,
                                                  tcpip::Ipv4Address target, const TestSpec& spec);

}  // namespace reorder::core
