// The crash-recovery bench driver (bench/runner.h) keeps each call's
// state under a root of its own: two calls running at once — here on
// two threads of one process — neither share nor delete each other's
// files, and agree with a call made alone.
#include "runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "osn/network.h"
#include "stats/rng.h"

namespace sybil::bench {
namespace {

namespace fs = std::filesystem;

constexpr int kAccounts = 300;

/// Background chatter plus four burst senders (the Sybils), accepted at
/// random: enough for the relaxed rule below to flag the bursts.
osn::Network burst_network(std::uint64_t seed) {
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(seed);
  for (int i = 0; i < kAccounts; ++i) net.add_account(osn::Account{});
  for (double t = 0.0; t < 6.0; t += 1.0) {
    for (int k = 0; k < 20; ++k) {
      net.send_request(static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
                       static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
                       t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
    }
    for (osn::NodeId s = 0; s < 4; ++s) {
      for (int k = 0; k < 20; ++k) {
        net.send_request(
            s, static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
            t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
      }
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.4);
    });
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.4);
  });
  return net;
}

std::vector<std::string> crash_roots() {
  std::vector<std::string> found;
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("sybil_bench_crash")) found.push_back(name);
  }
  return found;
}

TEST(BenchCrashRecovery, ConcurrentRunsAreIndependent) {
  ::setenv("SYBIL_IO_FSYNC", "0", 1);
  const osn::Network net = burst_network(5);
  std::vector<bool> is_sybil(kAccounts, false);
  for (int s = 0; s < 4; ++s) is_sybil[static_cast<std::size_t>(s)] = true;
  core::DetectorOptions options;
  options.rule.invite_rate_min = 4.0;
  options.rule.min_requests = 5;
  const std::vector<std::string> roots_before = crash_roots();
  const auto run = [&] {
    return run_crash_recovery(net.log(), is_sybil, options, 97, 2);
  };

  const CrashRecoveryRun alone = run();
  ASSERT_GT(alone.crashes, 0u);
  ASSERT_GT(alone.clean_flagged, 0u);
  CrashRecoveryRun runs[2];
  std::exception_ptr errors[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      try {
        runs[i] = run();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const CrashRecoveryRun& r : runs) {
    EXPECT_EQ(r.crashes, alone.crashes);
    EXPECT_EQ(r.records_replayed, alone.records_replayed);
    EXPECT_EQ(r.clean_flagged, alone.clean_flagged);
    EXPECT_EQ(r.recovered_flagged, alone.recovered_flagged);
    EXPECT_EQ(r.clean_precision, alone.clean_precision);
    EXPECT_EQ(r.clean_recall, alone.clean_recall);
    EXPECT_EQ(r.recovered_precision, alone.recovered_precision);
    EXPECT_EQ(r.recovered_recall, alone.recovered_recall);
  }
  // Every call removed its root.
  EXPECT_EQ(crash_roots(), roots_before);
  ::unsetenv("SYBIL_IO_FSYNC");
}

}  // namespace
}  // namespace sybil::bench
