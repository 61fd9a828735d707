#include "osn/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "io/container.h"
#include "io/error.h"
#include "osn/simulator.h"
#include "support/container_sections.h"
#include "support/non_simple_rows.h"

namespace sybil::osn {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

GroundTruthConfig small_config() {
  GroundTruthConfig cfg;
  cfg.background_users = 600;
  cfg.subject_normals = 60;
  cfg.subject_sybils = 60;
  cfg.sim_hours = 36.0;
  cfg.seed = 1234;
  return cfg;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// The full-state signature: a simulator serialized to checkpoint
/// bytes. Two simulators with equal signatures are indistinguishable to
/// every downstream consumer (same graph, ledgers, RNG stream, ...).
std::string signature(const GroundTruthSimulator& sim, const char* name) {
  const std::string path = temp_path(name);
  save_checkpoint(sim, path);
  std::string bytes = file_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

// A hook-thrown exception standing in for SIGKILL: run() unwinds
// without any cleanup of the hour loop, exactly like a dead process,
// and the checkpoint on disk is all that survives.
struct SimulatedCrash {};

TEST(Checkpoint, KillAndResumeMatchesUninterruptedRun) {
  // Reference: one uninterrupted window.
  GroundTruthSimulator uninterrupted(small_config());
  uninterrupted.run();

  // Interrupted: checkpoint at hour 17, crash at hour 20.
  const std::string ckpt = temp_path("ckpt_kill.snap");
  {
    GroundTruthSimulator victim(small_config());
    victim.set_hour_hook([&](Time, Network&) {
      if (victim.hours_completed() == 17) save_checkpoint(victim, ckpt);
      if (victim.hours_completed() == 20) throw SimulatedCrash{};
    });
    EXPECT_THROW(victim.run(), SimulatedCrash);
  }

  auto resumed = load_checkpoint(ckpt);
  std::remove(ckpt.c_str());
  EXPECT_EQ(resumed->hours_completed(), 17u);
  EXPECT_FALSE(resumed->finished());
  resumed->run();
  EXPECT_TRUE(resumed->finished());
  EXPECT_EQ(resumed->hours_completed(), 36u);

  // Byte-identical full state: graph, ledgers, events, RNG stream,
  // pending heap — not just summary statistics.
  EXPECT_EQ(signature(*resumed, "sig_resumed.snap"),
            signature(uninterrupted, "sig_reference.snap"));
}

TEST(Checkpoint, SaveLoadSaveIsByteStable) {
  GroundTruthSimulator sim(small_config());
  const std::string first = temp_path("ckpt_stable1.snap");
  save_checkpoint(sim, first);
  const auto loaded = load_checkpoint(first);
  const std::string second = temp_path("ckpt_stable2.snap");
  save_checkpoint(*loaded, second);
  EXPECT_EQ(file_bytes(first), file_bytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Checkpoint, RestoredMidRunStateIsFaithful) {
  const std::string ckpt = temp_path("ckpt_faithful.snap");
  GroundTruthSimulator sim(small_config());
  sim.set_hour_hook([&](Time, Network&) {
    if (sim.hours_completed() == 10) save_checkpoint(sim, ckpt);
  });
  sim.run();

  const auto restored = load_checkpoint(ckpt);
  std::remove(ckpt.c_str());
  EXPECT_EQ(restored->hours_completed(), 10u);
  EXPECT_EQ(restored->network().account_count(),
            sim.network().account_count());
  EXPECT_EQ(restored->subject_sybils(), sim.subject_sybils());
  EXPECT_EQ(restored->subject_normals(), sim.subject_normals());
  // Mid-window state: some friendships exist, requests are in flight.
  EXPECT_GT(restored->network().graph().edge_count(), 0u);
}

TEST(Checkpoint, FinishedSimulatorRefusesSecondRun) {
  const std::string ckpt = temp_path("ckpt_finished.snap");
  GroundTruthSimulator sim(small_config());
  sim.run();
  save_checkpoint(sim, ckpt);
  const auto restored = load_checkpoint(ckpt);
  std::remove(ckpt.c_str());
  EXPECT_TRUE(restored->finished());
  EXPECT_THROW(restored->run(), std::logic_error);
}

TEST(Checkpoint, RejectsBitFlippedFile) {
  const std::string ckpt = temp_path("ckpt_corrupt.snap");
  GroundTruthSimulator sim(small_config());
  save_checkpoint(sim, ckpt);

  std::string bytes = file_bytes(ckpt);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x08);
  std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  try {
    load_checkpoint(ckpt);
    FAIL() << "expected a typed SnapshotError";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kChecksumMismatch);
  }
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, MissingFileIsOpenFailed) {
  try {
    load_checkpoint("/nonexistent/sybil.ckpt");
    FAIL() << "expected kOpenFailed";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kOpenFailed);
  }
}

// The graph sections go through the same adjacency check as every
// other loader of stored rows. The rows are swapped into a real
// checkpoint behind valid CRCs, padded with isolated accounts.
TEST(Checkpoint, RefusesGraphRowsThatAreNotASimpleGraph) {
  const std::string ckpt = temp_path("ckpt_rows.snap");
  GroundTruthSimulator sim(small_config());
  save_checkpoint(sim, ckpt);
  constexpr auto kKind = io::PayloadKind::kSimulatorCheckpoint;
  const iotest::Sections base = iotest::read_sections(ckpt, kKind);
  const std::size_t accounts = sim.network().account_count();
  const auto save = [&](const graphtest::Rows& rows) {
    std::vector<std::uint32_t> degrees(accounts, 0);
    std::vector<NodeId> nodes;
    std::vector<double> times;
    std::vector<std::uint8_t> weak;
    for (std::size_t u = 0; u < rows.size(); ++u) {
      degrees[u] = static_cast<std::uint32_t>(rows[u].size());
      for (const NodeId v : rows[u]) {
        nodes.push_back(v);
        times.push_back(1.0);
        weak.push_back(0);
      }
    }
    iotest::Sections sections = base;
    // Sections 6-9: degrees, neighbour ids, times, weak flags.
    sections[6] = iotest::pod_bytes(degrees);
    sections[7] = iotest::pod_bytes(nodes);
    sections[8] = iotest::pod_bytes(times);
    sections[9] = iotest::pod_bytes(weak);
    iotest::write_sections(sections, kKind, ckpt);
  };
  for (const auto& [defect, rows] : graphtest::non_simple_rows()) {
    SCOPED_TRACE(defect);
    save(rows);
    graphtest::expect_format_violation([&] { load_checkpoint(ckpt); });
  }
  save(graphtest::simple_rows());  // the control
  EXPECT_EQ(load_checkpoint(ckpt)->network().graph().edge_count(), 2u);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace sybil::osn
