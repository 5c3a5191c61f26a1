// A multi-target duplex topology for survey experiments: one probe host
// and N remote hosts at distinct addresses, each behind its own emulated
// forward/reverse path, all sharing a single event loop. Probe egress is
// routed to the right forward path by destination address, which is what
// lets a SurveyEngine interleave measurement cycles against every target
// concurrently in one virtual timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/path_builder.hpp"
#include "core/survey_engine.hpp"
#include "core/test_registry.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/path.hpp"
#include "probe/probe_host.hpp"
#include "probe/raw_socket.hpp"
#include "tcpip/host.hpp"

namespace reorder::core {

/// One surveyed host: its address, behaviour, paths and test suite.
struct SurveyTargetConfig {
  std::string name;
  /// Auto-assigned 10.1.0.(index+1) when left zero.
  tcpip::Ipv4Address address{};
  /// Behaviour/IPID/app configuration; the standard listener set is
  /// installed when no listeners are configured.
  tcpip::HostConfig remote{};
  PathSpec forward{};
  PathSpec reverse{};
  /// The techniques to cycle against this target (registry specs).
  std::vector<TestSpec> tests{TestSpec{"single-connection"}, TestSpec{"syn"}};

  /// Explicit stochastic identity. core::pin_target_identity pins these
  /// from the target's GLOBAL fleet index (util::ShardSeeder) so the
  /// target's RNG streams are identical no matter which world — and how
  /// many worlds — the fleet is split into. When unset, the testbed
  /// derives them from the target's local index (the historical scheme,
  /// which is only stable for a fixed single-testbed layout).
  std::optional<std::uint64_t> host_seed;
  std::optional<std::uint16_t> ipid_initial;
  std::optional<std::uint64_t> forward_path_tag;
  std::optional<std::uint64_t> reverse_path_tag;
};

struct SurveyTestbedConfig {
  std::uint64_t seed{1};
  tcpip::Ipv4Address probe_addr{tcpip::Ipv4Address::from_octets(10, 0, 0, 1)};
  std::vector<SurveyTargetConfig> targets;
};

/// Defaults for targets that leave name/address unset, shared by the
/// single-testbed path (local index) and core::pin_target_identity
/// (global index) so both derive identical worlds from identical indices.
std::string default_target_name(std::size_t index);
/// Spreads addresses across 10.1.x.y so fleets larger than one /24
/// don't wrap onto each other.
tcpip::Ipv4Address default_target_address(std::size_t index);

class SurveyTestbed {
 public:
  explicit SurveyTestbed(SurveyTestbedConfig config);

  sim::EventLoop& loop() { return loop_; }
  probe::ProbeHost& probe() { return *probe_; }

  std::size_t target_count() const { return targets_.size(); }
  const std::string& target_name(std::size_t i) const { return targets_.at(i)->config.name; }
  tcpip::Ipv4Address target_addr(std::size_t i) const { return targets_.at(i)->config.address; }
  tcpip::Host& target_host(std::size_t i) { return *targets_.at(i)->host; }
  const std::vector<TestSpec>& target_tests(std::size_t i) const {
    return targets_.at(i)->config.tests;
  }

  /// Registers every target (with its configured test suite) on `engine`.
  void populate(SurveyEngine& engine);

 private:
  struct TargetNet {
    SurveyTargetConfig config;
    std::unique_ptr<tcpip::Host> host;
    sim::Path forward;
    sim::Path reverse;
  };

  sim::EventLoop loop_;
  std::unique_ptr<probe::SimRawSocket> socket_;
  std::unique_ptr<probe::ProbeHost> probe_;
  std::vector<std::unique_ptr<TargetNet>> targets_;
  /// Destination address -> forward-path owner.
  std::map<std::uint32_t, TargetNet*> routes_;
};

}  // namespace reorder::core
