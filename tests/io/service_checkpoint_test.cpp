// Service checkpoint codec suite (docs/FORMATS.md §5.4): the committed
// golden binaries and every typed refusal of load_service_checkpoint,
// in the `io` binary so the asan-io preset runs this decoder too.
//
//   * tests/data/service_ckpt_v8.sybs loads field-exact, and
//     re-serializing the same state reproduces its bytes;
//   * every byte flip and every truncation of it loads or throws a
//     typed io::SnapshotError, nothing else;
//   * the v3 and v4 goldens — formats that carried the unpumped queue —
//     the v5 golden, whose replay start did not cover the detector's
//     in-flight events, the v6 golden, whose defense section held the
//     incremental rank's layers, and the v7 golden, whose defense
//     section held a dirty set and the incremental clustering state,
//     are refused with kUnsupportedVersion;
//   * trailing meta bytes, a tier above kSweepOnly and a replay start
//     past the WAL position are refused, each with its own code;
//   * the defense-scorer decoder (DefenseScorer::restore) refuses every
//     count its bytes cannot hold with kMalformedSection, before
//     allocating for it, and every
//     truncation and byte flip of the golden's defense section loads or
//     throws a typed io::SnapshotError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_options.h"
#include "graph/graph.h"
#include "io/container.h"
#include "io/error.h"
#include "osn/events.h"
#include "service/checkpoint.h"
#include "service/defense_scorer.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

std::string golden(const char* name) {
  return std::string(SYBIL_TEST_DATA_DIR) + "/" + name;
}

core::DetectorOptions golden_defense_options() {
  core::DetectorOptions opts;
  opts.defense.enabled = true;
  opts.defense.seeds = {0, 1};
  return opts;
}

/// The exact state behind tests/data/service_ckpt_v8.sybs — every field
/// here is documented in the worked example of FORMATS.md §5.4. Fully
/// deterministic: fixed options, fixed events, no RNG, no clock.
ServiceCheckpointState golden_state() {
  ServiceCheckpointState s;
  s.wal_position = 7;
  s.replay_from = 3;  // the oldest record the detector still buffers
  s.tier = 1;         // kShedLowPriority
  s.shard_id = 2;
  s.shard_count = 4;
  s.next_seq = 7;
  s.counters.offered = 7;
  s.counters.admitted = 6;
  s.counters.pumped = 5;
  s.counters.shed_low_priority = 1;
  s.counters.sweeps = 2;
  s.counters.sweep_flagged = 1;
  s.stream_state = {std::byte{0x53}, std::byte{0x31}};  // opaque "S1"

  DefenseScorer scorer(golden_defense_options());
  scorer.observe({osn::EventType::kRequestAccepted, 1, 2, 1.0});
  scorer.observe({osn::EventType::kRequestAccepted, 2, 3, 2.0});
  scorer.observe({osn::EventType::kFriendshipSeeded, 0, 3, 3.0});
  scorer.observe({osn::EventType::kRequestAccepted, 1, 2, 4.0});  // dup
  scorer.observe({osn::EventType::kRequestAccepted, 3, 3, 5.0});  // loop
  scorer.refresh();
  scorer.observe({osn::EventType::kRequestAccepted, 0, 2, 6.0});
  s.defense_state = scorer.serialize();  // mid-interval: 1 edge unranked
  return s;
}

void expect_load_refused(const std::string& path, io::SnapshotErrorCode code) {
  try {
    load_service_checkpoint(path);
    ADD_FAILURE() << path << " loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(ServiceCheckpoint, GoldenCheckpointV8Loads) {
  const ServiceCheckpointState want = golden_state();
  const ServiceCheckpointState got =
      load_service_checkpoint(golden("service_ckpt_v8.sybs"));
  EXPECT_EQ(got.wal_position, want.wal_position);
  EXPECT_EQ(got.replay_from, want.replay_from);
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.shard_id, want.shard_id);
  EXPECT_EQ(got.shard_count, want.shard_count);
  EXPECT_EQ(got.next_seq, want.next_seq);
  EXPECT_TRUE(got.counters == want.counters);
  EXPECT_EQ(got.stream_state, want.stream_state);
  ASSERT_EQ(got.defense_state, want.defense_state);

  // The scorer blob restores into a working scorer: 4 distinct edges,
  // 2 deterministic skips, one refresh, and the 4 scores of that
  // refresh's 2-round recompute over the first 3 edges.
  DefenseScorer scorer(golden_defense_options());
  scorer.restore(got.defense_state);
  EXPECT_EQ(scorer.edges_observed(), 4u);
  EXPECT_EQ(scorer.ignored(), 2u);
  EXPECT_EQ(scorer.refreshes(), 1u);
  EXPECT_EQ(scorer.rank().full_recomputes(), 1u);
  EXPECT_EQ(scorer.rank().rounds_total(), 2u);
  EXPECT_EQ(scorer.graph().edge_count(), 4u);
  // The refresh saw the path 1-2-3-0 with trust 1/2 on seeds 0 and 1.
  // Two rounds spread it to 1/4 per node; degree normalization halves
  // it on the two middle nodes.
  const std::vector<double> scores = {1.0 / 4, 1.0 / 4, 1.0 / 8, 1.0 / 8};
  EXPECT_EQ(scorer.rank_scores(), scores);
  // Clustering comes from the rows: 0-2 closed the triangles 0-2-3.
  EXPECT_EQ(scorer.clustering_score(0), 1.0);
  EXPECT_EQ(scorer.clustering_score(1), 0.0);
  EXPECT_EQ(scorer.clustering_score(2), 1.0 / 3);
  EXPECT_EQ(scorer.clustering_score(3), 1.0);
  // Edge 0-2 arrived after the refresh, so the next one recomputes
  // once its scores are read.
  scorer.refresh();
  scorer.rank_scores();
  EXPECT_EQ(scorer.rank().full_recomputes(), 2u);
}

TEST(ServiceCheckpoint, GoldenCheckpointV8BytesAreFrozen) {
  const std::string fresh =
      testsupport::fresh_temp_path("sybil_ckpt_", "v8_fresh.sybs");
  save_service_checkpoint(fresh, golden_state());
  std::ifstream fa(golden("service_ckpt_v8.sybs"), std::ios::binary);
  std::ifstream fb(fresh, std::ios::binary);
  ASSERT_TRUE(fa.good()) << "committed golden missing";
  ASSERT_TRUE(fb.good());
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb)
      << "service checkpoint format changed without a version bump "
         "(docs/FORMATS.md §5.4)";
  std::remove(fresh.c_str());
}

// v3 and v4 stored the unpumped queue in section 2; later versions read
// it from the WAL, so the older goldens are kept only to be refused.
TEST(ServiceCheckpoint, GoldenCheckpointsV3AndV4AreRefused) {
  expect_load_refused(golden("service_ckpt_v3.sybs"),
                      io::SnapshotErrorCode::kUnsupportedVersion);
  expect_load_refused(golden("service_ckpt_v4.sybs"),
                      io::SnapshotErrorCode::kUnsupportedVersion);
}

// v5's replay start covered only the queue; its stream blob (state v3)
// carried the reorder buffer that v6 rebuilds from the WAL instead.
TEST(ServiceCheckpoint, GoldenCheckpointV5IsRefused) {
  expect_load_refused(golden("service_ckpt_v5.sybs"),
                      io::SnapshotErrorCode::kUnsupportedVersion);
}

// v6's defense section (scorer state v1) held the incremental rank's
// iterate layers and inverse degrees; v7 keeps the scores only.
TEST(ServiceCheckpoint, GoldenCheckpointV6IsRefused) {
  expect_load_refused(golden("service_ckpt_v6.sybs"),
                      io::SnapshotErrorCode::kUnsupportedVersion);
}

// v7's defense section (scorer state v2) also held a dirty set and the
// incremental clustering state; v8 keeps the graph and rank tier only.
TEST(ServiceCheckpoint, GoldenCheckpointV7IsRefused) {
  expect_load_refused(golden("service_ckpt_v7.sybs"),
                      io::SnapshotErrorCode::kUnsupportedVersion);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `bytes` as a checkpoint file. Returns false when the load threw
/// the typed taxonomy; any other exception escapes and fails the test.
bool loads(const std::string& path, const std::string& bytes) {
  write_file(path, bytes);
  try {
    load_service_checkpoint(path);
    return true;
  } catch (const io::SnapshotError&) {
    return false;
  }
}

// Untrusted-bytes hardening in the style of WalScanFuzz: the golden is
// damaged one byte at a time (every offset, several seeded values).
// Container CRCs cover every byte the decoder trusts, so nearly every
// flip is refused; whatever loads must have passed every check.
TEST(ServiceCheckpointFuzz, EveryByteFlipLoadsOrThrowsTyped) {
  const std::string bytes = read_file(golden("service_ckpt_v8.sybs"));
  ASSERT_FALSE(bytes.empty());
  const std::string path =
      testsupport::fresh_temp_path("sybil_ckpt_", "flip.sybs");
  std::mt19937_64 rng(0x5EEDu);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    unsigned char values[5] = {0x00, 0xFF, 0, 0, 0};
    for (int k = 2; k < 5; ++k) values[k] = static_cast<unsigned char>(rng());
    for (const unsigned char value : values) {
      if (static_cast<char>(value) == bytes[pos]) continue;
      SCOPED_TRACE("byte " + std::to_string(pos) + " := " +
                   std::to_string(value));
      std::string damaged = bytes;
      damaged[pos] = static_cast<char>(value);
      if (!loads(path, damaged)) ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
  std::remove(path.c_str());
}

TEST(ServiceCheckpointFuzz, EveryTruncationThrowsTyped) {
  const std::string bytes = read_file(golden("service_ckpt_v8.sybs"));
  const std::string path =
      testsupport::fresh_temp_path("sybil_ckpt_", "cut.sybs");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_FALSE(loads(path, bytes.substr(0, len)));
  }
  std::remove(path.c_str());
}

/// The v8 golden re-containered with one zero byte appended to its meta
/// section when `grow_meta` is set. Every CRC stays valid, so only the
/// checkpoint decoder can notice.
std::string golden_regrown(bool grow_meta, const std::string& name) {
  const io::ContainerReader reader(golden("service_ckpt_v8.sybs"),
                                   io::PayloadKind::kServiceCheckpoint);
  io::ContainerWriter writer(io::PayloadKind::kServiceCheckpoint);
  for (const std::uint32_t id : {1u, 3u, 5u}) {
    const auto bytes = reader.section(id);
    std::vector<std::byte> payload(bytes.begin(), bytes.end());
    if (id == 1 && grow_meta) payload.push_back(std::byte{0});
    writer.add_section(id, std::move(payload));
  }
  const std::string path =
      testsupport::fresh_temp_path("sybil_ckpt_edited_", name + ".sybs");
  writer.commit(path);
  return path;
}

TEST(ServiceCheckpoint, CheckpointLoadRejectsTrailingMetaBytes) {
  const std::string control = golden_regrown(false, "control");
  EXPECT_NO_THROW(load_service_checkpoint(control));
  std::remove(control.c_str());
  const std::string grown = golden_regrown(true, "meta");
  expect_load_refused(grown, io::SnapshotErrorCode::kMalformedSection);
  std::remove(grown.c_str());
}

TEST(ServiceCheckpoint, CheckpointLoadRejectsTierAboveSweepOnly) {
  const std::string path =
      testsupport::fresh_temp_path("sybil_ckpt_", "tier.sybs");
  constexpr auto kTop =
      static_cast<std::uint32_t>(core::ServiceTier::kSweepOnly);
  ServiceCheckpointState state = golden_state();
  state.tier = kTop;
  save_service_checkpoint(path, std::move(state));
  EXPECT_EQ(load_service_checkpoint(path).tier, kTop);  // still loads
  state = golden_state();
  state.tier = kTop + 1;
  save_service_checkpoint(path, std::move(state));
  expect_load_refused(path, io::SnapshotErrorCode::kFormatViolation);
  std::remove(path.c_str());
}

// The queue can never start past the WAL position it was taken at.
TEST(ServiceCheckpoint, CheckpointLoadRejectsReplayFromPastWalPosition) {
  const std::string path =
      testsupport::fresh_temp_path("sybil_ckpt_", "replay.sybs");
  ServiceCheckpointState state = golden_state();
  state.replay_from = state.wal_position;  // an empty queue: still loads
  save_service_checkpoint(path, std::move(state));
  EXPECT_EQ(load_service_checkpoint(path).replay_from, 7u);
  state = golden_state();
  state.replay_from = state.wal_position + 1;
  save_service_checkpoint(path, std::move(state));
  expect_load_refused(path, io::SnapshotErrorCode::kFormatViolation);
  std::remove(path.c_str());
}

/// A count no blob of this size can hold. Taken at face value it would
/// size an allocation of tens of gigabytes.
constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 32;

/// A scorer blob up to its node count: version and the three counters.
io::ByteWriter scorer_header() {
  io::ByteWriter w;
  w.write(std::uint32_t{3});  // scorer state version
  for (int i = 0; i < 3; ++i) w.write(std::uint64_t{0});
  return w;
}

/// An empty graph (no rows, no ranked edges) ahead of the rank scores.
io::ByteWriter scorer_without_graph() {
  io::ByteWriter w = scorer_header();
  w.write(std::uint64_t{0});  // nodes
  w.write(std::uint64_t{0});  // ranked edges
  return w;
}

/// The blob ends right after its huge count, so the refusal must come
/// from the count check, before anything is allocated for it.
void expect_scorer_refused(io::ByteWriter w) {
  const std::vector<std::byte> blob = std::move(w).take();
  DefenseScorer scorer(golden_defense_options());
  try {
    scorer.restore(blob);
    ADD_FAILURE() << "a blob declaring " << kHugeCount << " elements loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kMalformedSection) << e.what();
    EXPECT_NE(std::string(e.what()).find("exceeds the bytes left"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServiceCheckpoint, DefenseRestoreBoundsNodeCount) {
  io::ByteWriter w = scorer_header();
  w.write(kHugeCount);
  expect_scorer_refused(std::move(w));
}

TEST(ServiceCheckpoint, DefenseRestoreBoundsNeighborCount) {
  io::ByteWriter w = scorer_header();
  w.write(std::uint64_t{1});  // one node
  w.write(kHugeCount);        // its neighbours
  expect_scorer_refused(std::move(w));
}


// Every undirected edge sits in two rows; an odd total cannot be a
// graph, and must be refused before the rows are adopted as one.
TEST(ServiceCheckpoint, DefenseRestoreRefusesAnOddHalfEdgeCount) {
  io::ByteWriter w = scorer_header();
  w.write(std::uint64_t{2});  // nodes
  w.write(std::uint64_t{1});  // node 0: one neighbour
  w.write(graph::NodeId{1});
  w.write(graph::Time{1.0});
  w.write(std::uint8_t{0});
  w.write(std::uint64_t{0});  // node 1: none
  const std::vector<std::byte> blob = std::move(w).take();
  DefenseScorer scorer(golden_defense_options());
  try {
    scorer.restore(blob);
    ADD_FAILURE() << "a half edge loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kMalformedSection) << e.what();
  }
}

/// A scorer blob whose graph section holds `rows` (neighbour ids, every
/// half edge at time 1.0), with `ranked_edges` and no rank scores.
std::vector<std::byte> scorer_with_rows(
    const std::vector<std::vector<graph::NodeId>>& rows,
    std::uint64_t ranked_edges = 0) {
  io::ByteWriter w = scorer_header();
  w.write(static_cast<std::uint64_t>(rows.size()));
  for (const auto& row : rows) {
    w.write(static_cast<std::uint64_t>(row.size()));
    for (const graph::NodeId v : row) {
      w.write(v);
      w.write(graph::Time{1.0});
      w.write(std::uint8_t{0});
    }
  }
  w.write(ranked_edges);
  w.write(std::uint64_t{0});  // rank scores
  w.write(std::uint64_t{0});  // full recomputes
  w.write(std::uint64_t{0});  // rounds
  return std::move(w).take();
}

// Rows with an even half-edge total can still fail to be a graph; the
// scorer would rank them. Each is refused before it is adopted.
TEST(ServiceCheckpoint, DefenseRestoreRefusesRowsThatAreNotASimpleGraph) {
  using Rows = std::vector<std::vector<graph::NodeId>>;
  const std::pair<const char*, Rows> refused[] = {
      {"asymmetric", {{1, 2}, {0}, {1}}},
      {"duplicate neighbour", {{1, 1}, {0, 0}}},
      {"self-loop", {{0, 0}}},
  };
  for (const auto& [what, rows] : refused) {
    SCOPED_TRACE(what);
    DefenseScorer scorer(golden_defense_options());
    try {
      scorer.restore(scorer_with_rows(rows));
      ADD_FAILURE() << "rows that are not a simple graph loaded";
    } catch (const io::SnapshotError& e) {
      EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation)
          << e.what();
    }
  }
  DefenseScorer scorer(golden_defense_options());
  scorer.restore(scorer_with_rows({{1, 2}, {0}, {0}}));  // the control
  EXPECT_EQ(scorer.graph().edge_count(), 2u);
}

// The scores came from a prefix of the graph's edges: a blob claiming
// more ranked edges than its rows hold would skip a recompute it needs.
TEST(ServiceCheckpoint, DefenseRestoreRefusesRankedEdgesBeyondTheGraph) {
  const std::vector<std::vector<graph::NodeId>> rows = {{1}, {0}};
  DefenseScorer scorer(golden_defense_options());
  try {
    scorer.restore(scorer_with_rows(rows, 2));
    ADD_FAILURE() << "2 ranked edges over a 1-edge graph loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kMalformedSection) << e.what();
  }
  scorer.restore(scorer_with_rows(rows, 1));  // the control
  EXPECT_EQ(scorer.graph().edge_count(), 1u);
}

TEST(ServiceCheckpoint, DefenseRestoreBoundsRankNodeCount) {
  io::ByteWriter w = scorer_without_graph();
  w.write(kHugeCount);  // rank scores
  expect_scorer_refused(std::move(w));
}

/// The golden's defense section, as DefenseScorer::restore sees it.
std::vector<std::byte> golden_defense_section() {
  const io::ContainerReader reader(golden("service_ckpt_v8.sybs"),
                                   io::PayloadKind::kServiceCheckpoint);
  const auto bytes = reader.section(5);
  return {bytes.begin(), bytes.end()};
}

/// A loaded scorer's graph must be a simple undirected graph, as
/// add_edge builds: no self-loop, no repeated neighbour, symmetric rows.
void expect_simple_symmetric(const graph::TimestampedGraph& g) {
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    std::vector<graph::NodeId> row;
    for (const graph::Neighbor& nb : g.neighbors(u)) row.push_back(nb.node);
    std::sort(row.begin(), row.end());
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_NE(row[i], u) << "self-loop at " << u;
      if (i > 0) {
        ASSERT_LT(row[i - 1], row[i]) << "repeat in row " << u;
      }
      ASSERT_TRUE(g.has_edge(row[i], u)) << u << " -> " << row[i];
    }
  }
}

/// Restores `blob` into a fresh scorer. Returns false when the restore
/// threw the typed taxonomy; any other exception escapes and fails the
/// test. Under the asan-io preset an overread or an abort fails it too.
bool restores(const std::vector<std::byte>& blob) {
  DefenseScorer scorer(golden_defense_options());
  try {
    scorer.restore(blob);
  } catch (const io::SnapshotError&) {
    return false;
  }
  expect_simple_symmetric(scorer.graph());
  // A loaded scorer must stay usable: refresh over what it holds.
  scorer.refresh();
  return true;
}

/// Byte offset of the first neighbour id in a scorer blob: after the
/// u32 version, three u64 counters and the u64 node count, the first
/// non-empty row's u64 length.
std::size_t first_neighbour_offset(const std::vector<std::byte>& blob) {
  io::ByteReader r(blob);
  r.read<std::uint32_t>();
  for (int i = 0; i < 3; ++i) r.read<std::uint64_t>();
  const auto n = r.read<std::uint64_t>();
  std::size_t at = 4 + 4 * 8;
  for (std::uint64_t u = 0; u < n; ++u) {
    const auto len = r.read<std::uint64_t>();
    at += 8;
    if (len > 0) return at;
  }
  ADD_FAILURE() << "the golden lists no edge";
  return 0;
}

// The container CRCs keep damaged bytes away from the scorer decoder in
// the checkpoint fuzz above; here its own checks are the only guard.
TEST(DefenseScorerFuzz, EveryTruncationThrowsTyped) {
  const std::vector<std::byte> blob = golden_defense_section();
  ASSERT_TRUE(restores(blob));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_FALSE(restores({blob.begin(), blob.begin() + len}));
  }
}

// The golden's first neighbour id set to 0: a self-loop when it sits in
// row 0, otherwise a half edge row 0 does not mirror (or repeats).
TEST(DefenseScorerFuzz, FirstNeighbourZeroIsRefused) {
  std::vector<std::byte> blob = golden_defense_section();
  const std::size_t at = first_neighbour_offset(blob);
  ASSERT_GT(at, 0u);
  for (std::size_t i = 0; i < sizeof(graph::NodeId); ++i) {
    blob[at + i] = std::byte{0};
  }
  EXPECT_FALSE(restores(blob));
}

TEST(DefenseScorerFuzz, EveryByteFlipLoadsOrThrowsTyped) {
  const std::vector<std::byte> blob = golden_defense_section();
  std::mt19937_64 rng(0xDEF5u);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    unsigned char values[5] = {0x00, 0xFF, 0, 0, 0};
    for (int k = 2; k < 5; ++k) values[k] = static_cast<unsigned char>(rng());
    for (const unsigned char value : values) {
      if (std::byte{value} == blob[pos]) continue;
      SCOPED_TRACE("byte " + std::to_string(pos) + " := " +
                   std::to_string(value));
      std::vector<std::byte> damaged = blob;
      damaged[pos] = std::byte{value};
      if (!restores(damaged)) ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace sybil::service
