// Untrusted-bytes hardening of the WAL scan decoder (docs/FORMATS.md
// §WAL): a small golden segment — header plus eight records — is
// damaged one byte at a time (every offset, several seeded values) and
// cut at every length. scan_wal must either return a prefix of the
// golden records with the damage accounted (records_truncated,
// torn_tails_healed) or throw the typed io::SnapshotError taxonomy; it
// never aborts, and under the asan preset (ctest --preset asan-io) it
// never reads or allocates out of bounds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "io/error.h"
#include "service/wal.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kRecordBytes = 44;
constexpr std::uint64_t kRecords = 8;
constexpr std::uint32_t kShard = 3;

struct Golden {
  std::string dir;
  std::string segment;
  std::vector<char> bytes;
  std::vector<WalRecord> records;
};

/// Writes the golden segment into a fresh directory and reads it back.
Golden write_golden(const std::string& name) {
  Golden g;
  g.dir = ::testing::TempDir() + "/sybil_walfuzz_" + name;
  fs::remove_all(g.dir);
  {
    WalOptions opts;
    opts.dir = g.dir;
    opts.fsync = WalFsync::kNever;
    opts.shard_id = kShard;
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const osn::Event e{static_cast<osn::EventType>(i % 6),
                         static_cast<graph::NodeId>(10 + i),
                         static_cast<graph::NodeId>(20 + 3 * i),
                         0.5 * static_cast<double>(i)};
      w.append(e, 100 + i, static_cast<std::uint32_t>(i % 3));
    }
    w.sync();
  }
  for (const auto& entry : fs::directory_iterator(g.dir)) {
    g.segment = entry.path().string();
  }
  std::ifstream in(g.segment, std::ios::binary);
  g.bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  WalScanReport report;
  g.records = scan_wal(g.dir, 0, report, kShard);
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
  }
}

TEST(WalScanFuzz, EveryByteFlipLoadsAPrefixOrThrowsTyped) {
  const Golden g = write_golden("flip");
  ASSERT_EQ(g.bytes.size(), kHeaderBytes + kRecords * kRecordBytes);
  ASSERT_EQ(g.records.size(), kRecords);

  std::mt19937_64 rng(0x5EEDu);
  std::size_t typed = 0;
  std::size_t header_rejected = 0;
  for (std::size_t pos = 0; pos < g.bytes.size(); ++pos) {
    unsigned char values[5] = {0x00, 0xFF, 0, 0, 0};
    for (int k = 2; k < 5; ++k) values[k] = static_cast<unsigned char>(rng());
    for (const unsigned char value : values) {
      if (static_cast<char>(value) == g.bytes[pos]) continue;
      SCOPED_TRACE("byte " + std::to_string(pos) + " := " +
                   std::to_string(value));
      std::vector<char> damaged = g.bytes;
      damaged[pos] = static_cast<char>(value);
      write_file(g.segment, damaged.data(), damaged.size());

      std::vector<WalRecord> records;
      WalScanReport report;
      if (!scan(g, records, report)) {
        ++typed;
        continue;
      }
      expect_golden_prefix(g, records);
      EXPECT_EQ(report.records_returned, records.size());
      EXPECT_EQ(report.next_index, records.size());
      if (pos < kHeaderBytes) {
        // A header either still passes its checks (a version or shard
        // stamp that stays acceptable) or the whole segment is skipped
        // as torn, left in place for a writer at its base.
        if (records.empty()) {
          EXPECT_EQ(report.torn_tails_healed, 1u);
          ++header_rejected;
        } else {
          EXPECT_EQ(records.size(), kRecords);
          EXPECT_EQ(report.torn_tails_healed, 0u);
        }
        EXPECT_EQ(report.records_truncated, 0u);
        continue;
      }
      // A damaged record ends the trusted prefix: it and everything
      // after it are truncated, and the file is healed back to the
      // prefix (CRC-32 catches every single-byte change).
      const std::size_t damaged_record = (pos - kHeaderBytes) / kRecordBytes;
      EXPECT_EQ(records.size(), damaged_record);
      EXPECT_EQ(report.records_truncated, kRecords - damaged_record);
      EXPECT_EQ(report.torn_tails_healed, 1u);
      EXPECT_EQ(fs::file_size(g.segment),
                kHeaderBytes + damaged_record * kRecordBytes);
    }
  }
  // The shard stamp refuses typed; magic, endian tag, size and base
  // reject the header.
  EXPECT_GT(typed, 0u);
  EXPECT_GT(header_rejected, 0u);
}

TEST(WalScanFuzz, EveryTruncationLoadsTheWholeRecordPrefix) {
  const Golden g = write_golden("cut");
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
    const std::size_t whole = (len - kHeaderBytes) / kRecordBytes;
    const bool partial = (len - kHeaderBytes) % kRecordBytes != 0;
    EXPECT_EQ(records.size(), whole);
    EXPECT_EQ(report.records_truncated, partial ? 1u : 0u);
    EXPECT_EQ(report.torn_tails_healed, partial ? 1u : 0u);
  }
}

}  // namespace
}  // namespace sybil::service
