// Tests for the registry-driven technique construction API.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/ping_burst_adapter.hpp"
#include "core/test_registry.hpp"
#include "core/testbed.hpp"

namespace reorder::core {
namespace {

TEST(Registry, KnowsAllFiveTechniquesPlusVariant) {
  const auto names = TestRegistry::global().technique_names();
  const std::vector<std::string> expected{"data-transfer",      "dual-connection",
                                          "ping-burst",         "single-connection",
                                          "single-connection-inorder", "syn"};
  EXPECT_EQ(names, expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(TestRegistry::global().contains(name)) << name;
  }
}

TEST(Registry, AliasesResolveToCanonicalNames) {
  const auto& reg = TestRegistry::global();
  EXPECT_EQ(reg.canonical_name("single"), "single-connection");
  EXPECT_EQ(reg.canonical_name("single-inorder"), "single-connection-inorder");
  EXPECT_EQ(reg.canonical_name("dual"), "dual-connection");
  EXPECT_EQ(reg.canonical_name("data"), "data-transfer");
  EXPECT_EQ(reg.canonical_name("ping"), "ping-burst");
  EXPECT_EQ(reg.canonical_name("syn"), "syn");
  EXPECT_TRUE(reg.contains("dual"));
}

TEST(Registry, ConcurrentRegistrationAndLookupIsSafe) {
  // The survey service resolves techniques from worker threads
  // while other code may still be registering variants — registration and
  // lookup must be mutually safe (regression: the maps used to be
  // unguarded, which TSAN flags and std::map corruption punishes).
  TestRegistry reg;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, &go, &failures, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        const std::string name = "tech-" + std::to_string(t) + "-" + std::to_string(i);
        reg.register_technique(name, [](probe::ProbeHost&, tcpip::Ipv4Address,
                                        const TestSpec&) -> std::unique_ptr<ReorderTest> {
          return nullptr;
        });
        reg.register_alias("alias-" + name, name);
        if (!reg.contains(name) || reg.canonical_name("alias-" + name) != name) {
          failures.fetch_add(1);
        }
        // Cross-thread reads race against the other writers on purpose.
        reg.technique_names();
        reg.contains("tech-0-0");
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reg.technique_names().size(), 4u * 200u);
}

TEST(Registry, GlobalRegistryCreatesConcurrently) {
  // Building suites from several shard worlds at once is the runtime's
  // steady state; create() must not trip over itself.
  Testbed bed_a{TestbedConfig{}};
  Testbed bed_b{TestbedConfig{}};
  std::atomic<int> built{0};
  std::thread other{[&bed_b, &built] {
    for (int i = 0; i < 50; ++i) {
      if (TestRegistry::global().create(bed_b.probe(), bed_b.remote_addr(), TestSpec{"syn"})) {
        built.fetch_add(1);
      }
    }
  }};
  for (int i = 0; i < 50; ++i) {
    if (TestRegistry::global().create(bed_a.probe(), bed_a.remote_addr(), TestSpec{"single"})) {
      built.fetch_add(1);
    }
  }
  other.join();
  EXPECT_EQ(built.load(), 100);
}

TEST(Registry, ContainsAgreesWithCreateForDanglingAliases) {
  TestRegistry reg;
  reg.register_alias("short", "never-registered");
  // contains() must answer what create() would do, not just alias-table
  // membership.
  EXPECT_FALSE(reg.contains("short"));
  EXPECT_THROW(reg.canonical_name("short"), std::invalid_argument);
}

TEST(Registry, UnknownTechniqueIsAHardError) {
  Testbed bed{TestbedConfig{}};
  const auto& reg = TestRegistry::global();
  EXPECT_THROW(reg.canonical_name("data-transfe"), std::invalid_argument);
  EXPECT_THROW(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"no-such-test"}),
               std::invalid_argument);
  // The historical bench_common bug: an unknown name silently became a
  // data-transfer test. It must throw, and the message must name the
  // offender.
  try {
    reg.create(bed.probe(), bed.remote_addr(), TestSpec{"singel"});
    FAIL() << "unknown technique did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("singel"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("single-connection"), std::string::npos);
  }
}

TEST(Registry, CreateBuildsWorkingTests) {
  Testbed bed{TestbedConfig{}};
  const auto& reg = TestRegistry::global();
  EXPECT_EQ(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"single"})->name(),
            "single-connection");
  EXPECT_EQ(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"dual"})->name(),
            "dual-connection");
  EXPECT_EQ(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"syn"})->name(), "syn");
  EXPECT_EQ(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"data"})->name(),
            "data-transfer");
  EXPECT_EQ(reg.create(bed.probe(), bed.remote_addr(), TestSpec{"ping"})->name(), "ping-burst");
}

TEST(Registry, SpecOptionsAreHonored) {
  Testbed bed{TestbedConfig{}};
  SingleConnectionOptions inorder;
  inorder.reversed_order = false;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(),
                                   TestSpec{"single-connection", 0, inorder});
  EXPECT_EQ(test->name(), "single-connection-inorder");
}

TEST(Registry, MismatchedOptionsVariantThrows) {
  Testbed bed{TestbedConfig{}};
  SynTestOptions syn_opts;
  EXPECT_THROW(
      make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single", 0, syn_opts}),
      std::invalid_argument);
}

TEST(Registry, CreateAsPreservesConcreteType) {
  Testbed bed{TestbedConfig{}};
  const auto& reg = TestRegistry::global();
  auto dual =
      reg.create_as<DualConnectionTest>(bed.probe(), bed.remote_addr(), TestSpec{"dual"});
  ASSERT_NE(dual, nullptr);
  EXPECT_THROW(reg.create_as<DualConnectionTest>(bed.probe(), bed.remote_addr(), TestSpec{"syn"}),
               std::invalid_argument);
}

TEST(Registry, PingBurstAdapterReportsRoundTripVerdicts) {
  TestbedConfig cfg;
  cfg.seed = 901;
  cfg.forward.swap_probability = 0.4;
  cfg.reverse.swap_probability = 0.4;
  Testbed bed{cfg};
  auto ping = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"ping-burst"});
  TestRunConfig run;
  run.samples = 40;  // bursts
  run.sample_spacing = util::Duration::millis(60);
  const auto result = bed.run_sync(*ping, run);
  ASSERT_TRUE(result.admissible) << result.note;
  EXPECT_GT(result.forward.usable(), 100);  // 40 bursts x 4 adjacent pairs
  EXPECT_GT(result.forward.reordered, 0);
  // The direction-ambiguity critique: nothing can land in `reverse`.
  EXPECT_EQ(result.reverse.total(), 0);
  EXPECT_NE(result.note.find("direction-ambiguous"), std::string::npos);
}

TEST(Registry, PingBurstAdapterOnCleanPathSeesNothing) {
  TestbedConfig cfg;
  cfg.seed = 902;
  Testbed bed{cfg};
  PingBurstOptions opts;
  opts.burst_size = 5;
  auto ping = TestRegistry::global().create_as<PingBurstAdapter>(
      bed.probe(), bed.remote_addr(), TestSpec{"ping-burst", 0, opts});
  TestRunConfig run;
  run.samples = 10;
  const auto result = bed.run_sync(*ping, run);
  ASSERT_TRUE(result.admissible);
  EXPECT_EQ(result.forward.reordered, 0);
  EXPECT_EQ(result.forward.lost, 0);
  const auto& raw = ping->last_burst_result();
  EXPECT_EQ(raw.bursts, 10);
  EXPECT_EQ(raw.bursts_complete, 10);
}

}  // namespace
}  // namespace reorder::core
