// Untrusted-bytes hardening of the WAL scan decoder (docs/FORMATS.md
// §8): the committed three-frame segment tests/data/wal_v3_fuzz.seg is
// damaged one byte at a time (every offset, three XOR masks) and cut at
// every length. scan_wal must either return the records of a whole-
// frame prefix, with next_index at that frame boundary, the damage
// accounted (records_truncated, torn_tails_healed) and the file healed
// back to the boundary, or throw the typed io::SnapshotError taxonomy;
// it never aborts, and under the asan preset (ctest --preset asan-io) it
// never reads or allocates out of bounds. A frame header whose count or
// length runs past the file is refused before anything is read for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/error.h"
#include "service/wal.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 36;
constexpr std::uint32_t kShard = 3;

/// The committed segment's frames: their byte ranges and first records.
struct Frame {
  std::size_t begin;
  std::size_t end;
  std::uint64_t first;
};

struct Golden {
  std::string dir;
  std::string segment;
  std::vector<char> bytes;
  std::vector<WalRecord> records;
  std::vector<Frame> frames;
};

/// The records of tests/data/wal_v3_fuzz.seg: eight offers of a shard
/// of a router (seqs with gaps, a late event, every stamp code), sealed
/// as frames of three, three and two records.
std::vector<WalRecord> golden_records() {
  std::vector<WalRecord> out;
  graph::Time clock = -1.0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    WalRecord r;
    r.index = i;
    r.seq = 100 + 2 * i;
    r.event = {static_cast<osn::EventType>(i % 6),
               static_cast<graph::NodeId>(10 + i),
               static_cast<graph::NodeId>(20 + 3 * i),
               i == 4 ? 0.25 : 0.5 * static_cast<double>(i)};
    r.flags = static_cast<std::uint32_t>(i % 3);
    clock = std::max(clock, r.event.time);
    // Record 6 carries a time another shard saw first.
    r.stamp = i == 6 ? clock + 0.125 : clock;
    clock = r.stamp;
    out.push_back(r);
  }
  return out;
}

Golden load_golden(const std::string& name) {
  Golden g;
  g.dir = testsupport::fresh_temp_path("sybil_walfuzz_", name);
  fs::create_directories(g.dir);
  g.segment = g.dir + "/wal-00000000000000000000.seg";
  std::ifstream in(std::string(SYBIL_TEST_DATA_DIR) + "/wal_v3_fuzz.seg",
                   std::ios::binary);
  g.bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  g.records = golden_records();
  // Walk the frame headers: count u32, body length u32, first index
  // u64; the body and a CRC-32 follow.
  for (std::size_t at = kHeaderBytes; at + 16 <= g.bytes.size();) {
    std::uint32_t body = 0;
    std::uint64_t first = 0;
    std::memcpy(&body, g.bytes.data() + at + 4, 4);
    std::memcpy(&first, g.bytes.data() + at + 8, 8);
    g.frames.push_back({at, at + 16 + body + 4, first});
    at = g.frames.back().end;
  }
  return g;
}

void write_file(const std::string& path, const char* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(n));
}

/// Scans the damaged segment. Returns false when the scan threw the
/// typed taxonomy; any other exception escapes and fails the test.
bool scan(const Golden& g, std::vector<WalRecord>& records,
          WalScanReport& report) {
  try {
    records = scan_wal(g.dir, 0, report, kShard);
    return true;
  } catch (const io::SnapshotError&) {
    return false;
  }
}

void expect_golden_prefix(const Golden& g,
                          const std::vector<WalRecord>& records) {
  ASSERT_LE(records.size(), g.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WalRecord& a = records[i];
    const WalRecord& b = g.records[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.event.type, b.event.type);
    EXPECT_EQ(a.event.actor, b.event.actor);
    EXPECT_EQ(a.event.subject, b.event.subject);
    EXPECT_EQ(a.event.time, b.event.time);
    EXPECT_EQ(a.stamp, b.stamp);
  }
}

TEST(WalScanFuzz, GoldenScansWhole) {
  const Golden g = load_golden("whole");
  ASSERT_EQ(g.frames.size(), 3u);
  ASSERT_EQ(g.frames.back().end, g.bytes.size());
  write_file(g.segment, g.bytes.data(), g.bytes.size());
  std::vector<WalRecord> records;
  WalScanReport report;
  ASSERT_TRUE(scan(g, records, report));
  ASSERT_EQ(records.size(), g.records.size());
  expect_golden_prefix(g, records);
  EXPECT_EQ(report.next_index, g.records.size());
  EXPECT_EQ(report.last_stamp, g.records.back().stamp);
}

TEST(WalScanFuzz, EveryByteFlipLoadsAPrefixOrThrowsTyped) {
  const Golden g = load_golden("flip");
  ASSERT_EQ(g.frames.size(), 3u);
  std::size_t typed = 0;
  for (std::size_t pos = 0; pos < g.bytes.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      SCOPED_TRACE("byte " + std::to_string(pos) + " ^= " +
                   std::to_string(mask));
      std::vector<char> damaged = g.bytes;
      damaged[pos] = static_cast<char>(damaged[pos] ^ mask);
      write_file(g.segment, damaged.data(), damaged.size());

      std::vector<WalRecord> records;
      WalScanReport report;
      if (!scan(g, records, report)) {
        ++typed;
        continue;
      }
      expect_golden_prefix(g, records);
      EXPECT_EQ(report.records_returned, records.size());
      EXPECT_EQ(report.torn_tails_healed, 1u);
      if (pos < kHeaderBytes) {
        // The header's CRC fails: the whole segment is skipped as torn
        // and left in place for a writer at its base.
        EXPECT_TRUE(records.empty());
        EXPECT_EQ(report.next_index, 0u);
        EXPECT_EQ(report.records_truncated, 0u);
        EXPECT_EQ(fs::file_size(g.segment), g.bytes.size());
        continue;
      }
      // The damaged frame ends the trusted prefix: it and every frame
      // after it are dropped, and the file is healed back to the frame
      // boundary (CRC-32 catches every single-byte change).
      std::size_t f = 0;
      while (pos >= g.frames[f].end) ++f;
      EXPECT_EQ(records.size(), g.frames[f].first);
      EXPECT_EQ(report.next_index, g.frames[f].first);
      EXPECT_GE(report.records_truncated, 1u);
      EXPECT_EQ(fs::file_size(g.segment), g.frames[f].begin);
    }
  }
  // No single-byte change survives a CRC, so none reaches the refusals
  // of a CRC-valid header or frame.
  EXPECT_EQ(typed, 0u);
}

TEST(WalScanFuzz, EveryTruncationLoadsTheWholeFramePrefix) {
  const Golden g = load_golden("cut");
  for (std::size_t len = 0; len < g.bytes.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    write_file(g.segment, g.bytes.data(), len);
    std::vector<WalRecord> records;
    WalScanReport report;
    ASSERT_TRUE(scan(g, records, report));
    expect_golden_prefix(g, records);
    if (len < kHeaderBytes) {
      EXPECT_TRUE(records.empty());
      EXPECT_EQ(report.torn_tails_healed, 1u);
      continue;
    }
    std::size_t whole = 0;  // frames that end within the cut
    while (whole < g.frames.size() && g.frames[whole].end <= len) ++whole;
    const std::size_t boundary =
        whole == 0 ? kHeaderBytes : g.frames[whole - 1].end;
    const std::uint64_t kept =
        whole == g.frames.size() ? g.records.size() : g.frames[whole].first;
    const bool partial = len != boundary;
    EXPECT_EQ(records.size(), kept);
    EXPECT_EQ(report.next_index, kept);
    EXPECT_EQ(report.records_truncated, partial ? 1u : 0u);
    EXPECT_EQ(report.torn_tails_healed, partial ? 1u : 0u);
    EXPECT_EQ(fs::file_size(g.segment), boundary);
  }
}

TEST(WalScanFuzz, OversizedFrameHeaderIsRefusedBeforeReading) {
  const Golden g = load_golden("oversized");
  // The golden header, then a frame claiming 2^32 - 1 records in a body
  // of nearly 4 GiB, and a few bytes of what would be its records.
  std::vector<char> bytes(g.bytes.begin(), g.bytes.begin() + kHeaderBytes);
  const std::uint32_t count = ~std::uint32_t{0};
  const std::uint32_t body = ~std::uint32_t{0} - 15;
  const std::uint64_t first = 0;
  bytes.resize(kHeaderBytes + 16 + 64, '\x5a');
  std::memcpy(bytes.data() + kHeaderBytes, &count, 4);
  std::memcpy(bytes.data() + kHeaderBytes + 4, &body, 4);
  std::memcpy(bytes.data() + kHeaderBytes + 8, &first, 8);
  write_file(g.segment, bytes.data(), bytes.size());
  std::vector<WalRecord> records;
  WalScanReport report;
  ASSERT_TRUE(scan(g, records, report));
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(report.next_index, 0u);
  EXPECT_EQ(report.records_truncated, 1u);
  EXPECT_EQ(report.torn_tails_healed, 1u);
  EXPECT_EQ(fs::file_size(g.segment), kHeaderBytes);
}

}  // namespace
}  // namespace sybil::service
