#include "core/survey_testbed.hpp"

#include <stdexcept>

#include "core/testbed.hpp"

namespace reorder::core {

std::string default_target_name(std::size_t index) {
  return "target-" + std::to_string(index);
}

tcpip::Ipv4Address default_target_address(std::size_t index) {
  // 254 hosts per /24, 256 /24s per second-octet block: 10.1.0.1 through
  // 10.1.255.254, then 10.2.0.1, ... — ~16.5M distinct defaults. Indices
  // below 65024 map exactly as they always did (10.1.x.y); the carry into
  // the second octet is what lets a million-target fleet use defaults
  // without colliding.
  const std::size_t subnet = index / 254;
  return tcpip::Ipv4Address::from_octets(10, static_cast<std::uint8_t>(1 + subnet / 256),
                                         static_cast<std::uint8_t>(subnet % 256),
                                         static_cast<std::uint8_t>(index % 254 + 1));
}

SurveyTestbed::SurveyTestbed(SurveyTestbedConfig config) {
  socket_ = std::make_unique<probe::SimRawSocket>(loop_, config.probe_addr);
  probe_ = std::make_unique<probe::ProbeHost>(loop_, *socket_);

  std::size_t index = 0;
  for (SurveyTargetConfig& target_cfg : config.targets) {
    auto net = std::make_unique<TargetNet>();
    net->config = std::move(target_cfg);
    if (net->config.name.empty()) net->config.name = default_target_name(index);
    if (net->config.address == tcpip::Ipv4Address{}) {
      net->config.address = default_target_address(index);
    }

    // Install only the standard listener set when none is configured —
    // the target's behaviour/IPID knobs must survive.
    tcpip::HostConfig host_cfg = net->config.remote;
    if (host_cfg.listeners.empty()) host_cfg.listeners = default_remote_config().listeners;
    host_cfg.address = net->config.address;
    host_cfg.name = net->config.name;
    // Per-target seed/IPID derivation mirrors Testbed's per-backend scheme
    // so identical (seed, index) pairs reproduce identical hosts. A config
    // with explicit identity (core::pin_target_identity's) overrides the
    // local derivation wholesale — that is what makes a target's world a pure
    // function of its global fleet index.
    host_cfg.seed = net->config.host_seed.value_or(config.seed * 1000 + index + 1);
    host_cfg.ipid_initial =
        net->config.ipid_initial.value_or(static_cast<std::uint16_t>(1 + 17'000 * index));
    net->host = std::make_unique<tcpip::Host>(loop_, std::move(host_cfg));

    // Distinct seed tags per target and direction keep every path's RNG
    // stream independent of the others.
    const std::uint64_t tag_base = 0x100 + index * 2;
    build_measurement_path(loop_, net->forward, net->config.forward, config.seed,
                           net->config.forward_path_tag.value_or(tag_base + 0));
    build_measurement_path(loop_, net->reverse, net->config.reverse, config.seed,
                           net->config.reverse_path_tag.value_or(tag_base + 1));

    tcpip::Host* host = net->host.get();
    net->forward.terminate([host](tcpip::Packet pkt) { host->receive(std::move(pkt)); });
    net->reverse.terminate([this](tcpip::Packet pkt) { socket_->deliver(std::move(pkt)); });
    net->host->set_transmit(net->reverse.entry());

    if (!routes_.emplace(net->config.address.value(), net.get()).second) {
      throw std::invalid_argument{"SurveyTestbed: duplicate target address " +
                                  net->config.address.to_string()};
    }
    targets_.push_back(std::move(net));
    ++index;
  }

  socket_->set_transmit([this](tcpip::Packet pkt) {
    const auto it = routes_.find(pkt.ip.dst.value());
    if (it == routes_.end()) return;  // destination unreachable: drop
    it->second->forward.entry()(std::move(pkt));
  });
}

void SurveyTestbed::populate(SurveyEngine& engine) {
  for (const auto& target : targets_) {
    engine.add_target(target->config.name, *probe_, target->config.address,
                      target->config.tests);
  }
}

}  // namespace reorder::core
