#include "io/container.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "io/crc32.h"
#include "io/faulty_vfs.h"
#include "support/temp_path.h"

namespace sybil::io {
namespace {

/// The envelope does not depend on what it holds; any live kind will do.
constexpr PayloadKind kKind = PayloadKind::kServiceCheckpoint;

std::vector<std::byte> payload_of(std::initializer_list<std::uint8_t> v) {
  std::vector<std::byte> out;
  for (auto b : v) out.push_back(std::byte{b});
  return out;
}

/// A small two-section container image used by every corruption test.
std::vector<std::byte> sample_image() {
  ContainerWriter writer(kKind);
  writer.add_section(1, payload_of({1, 2, 3, 4, 5}));
  const std::vector<std::uint64_t> values = {42, 7, 0xdeadbeef};
  writer.add_pod_section<std::uint64_t>(2, values);
  return writer.serialize();
}

SnapshotErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a SnapshotError";
  return SnapshotErrorCode::kOpenFailed;
}

SnapshotErrorCode open_code(std::vector<std::byte> image) {
  return code_of([image = std::move(image)]() mutable {
    ContainerReader reader(std::move(image), kKind);
  });
}

TEST(Container, RoundTripsSectionsInMemory) {
  const ContainerReader reader(sample_image(), kKind);
  EXPECT_EQ(reader.format_version(), kFormatVersion);
  EXPECT_TRUE(reader.has_section(1));
  EXPECT_TRUE(reader.has_section(2));
  EXPECT_FALSE(reader.has_section(3));

  const auto raw = reader.section(1);
  ASSERT_EQ(raw.size(), 5u);
  EXPECT_EQ(std::to_integer<int>(raw[4]), 5);

  const auto typed = reader.pod_section<std::uint64_t>(2);
  ASSERT_EQ(typed.size(), 3u);
  EXPECT_EQ(typed[2], 0xdeadbeefu);
}

TEST(Container, CommitThenOpenBothIoPaths) {
  const std::string path =
      testsupport::fresh_temp_path("container_", "rt.snap");
  ContainerWriter writer(kKind);
  writer.add_section(9, payload_of({0xab, 0xcd}));
  writer.commit(path);

  // The two ways into a reader: the committed file, mapped, and the
  // same image in memory.
  const ContainerReader from_file(path, kKind);
  const ContainerReader from_image(writer.serialize(), kKind);
  for (const ContainerReader* reader : {&from_file, &from_image}) {
    const auto bytes = reader->section(9);
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(std::to_integer<int>(bytes[0]), 0xab);
  }
  // No temp file left behind after a successful commit.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Container, CommitReplacesExistingFileAtomically) {
  const std::string path =
      testsupport::fresh_temp_path("container_", "replace.snap");
  ContainerWriter first(kKind);
  first.add_section(1, payload_of({1}));
  first.commit(path);
  ContainerWriter second(kKind);
  second.add_section(1, payload_of({2, 2}));
  second.commit(path);
  const ContainerReader reader(path, kKind);
  EXPECT_EQ(reader.section(1).size(), 2u);
  std::remove(path.c_str());
}

TEST(Container, MissingFileIsOpenFailed) {
  EXPECT_EQ(code_of([] {
              ContainerReader r("/nonexistent/sybil.snap", kKind);
            }),
            SnapshotErrorCode::kOpenFailed);
}

TEST(Container, RejectsTruncationAtEveryBoundary) {
  const auto image = sample_image();
  // Shorter than the header, mid-table, mid-payload, one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{16}, std::size_t{40}, image.size() - 1}) {
    std::vector<std::byte> cut(image.begin(), image.begin() + keep);
    EXPECT_EQ(open_code(std::move(cut)), SnapshotErrorCode::kTruncated)
        << "kept " << keep << " bytes";
  }
}

TEST(Container, RejectsBitFlipInPayload) {
  auto image = sample_image();
  image.back() ^= std::byte{0x01};  // last payload byte
  EXPECT_EQ(open_code(std::move(image)),
            SnapshotErrorCode::kChecksumMismatch);
}

TEST(Container, RejectsBitFlipInSectionTable) {
  auto image = sample_image();
  image[32] ^= std::byte{0x40};  // first table entry's id field
  EXPECT_EQ(open_code(std::move(image)),
            SnapshotErrorCode::kChecksumMismatch);
}

TEST(Container, RejectsWrongMagic) {
  auto image = sample_image();
  image[0] = std::byte{'X'};
  EXPECT_EQ(open_code(std::move(image)), SnapshotErrorCode::kBadMagic);
}

TEST(Container, RejectsForeignEndianness) {
  auto image = sample_image();
  std::swap(image[4], image[5]);  // endian tag reads 0x0201
  EXPECT_EQ(open_code(std::move(image)), SnapshotErrorCode::kBadEndianness);
}

TEST(Container, RejectsFutureFormatVersion) {
  auto image = sample_image();
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(image.data() + 8, &future, sizeof(future));
  EXPECT_EQ(open_code(std::move(image)),
            SnapshotErrorCode::kUnsupportedVersion);
}

TEST(Container, RejectsWrongPayloadKind) {
  EXPECT_EQ(code_of([] {
              ContainerReader r(sample_image(),
                                PayloadKind::kTimestampedGraph);
            }),
            SnapshotErrorCode::kWrongPayload);
}

TEST(Container, RejectsDeclaredSizeMismatch) {
  auto image = sample_image();
  image.push_back(std::byte{0});  // grow past the declared file_size
  EXPECT_EQ(open_code(std::move(image)), SnapshotErrorCode::kTruncated);
}

TEST(Container, MissingSectionIsTypedError) {
  const ContainerReader reader(sample_image(), kKind);
  EXPECT_EQ(code_of([&] { reader.section(77); }),
            SnapshotErrorCode::kMalformedSection);
}

TEST(Container, PodSectionRejectsLengthMismatch) {
  const ContainerReader reader(sample_image(), kKind);
  // Section 1 holds 5 bytes: not a multiple of sizeof(uint64_t).
  EXPECT_EQ(code_of([&] { reader.pod_section<std::uint64_t>(1); }),
            SnapshotErrorCode::kMalformedSection);
}

TEST(Container, WriterRejectsDuplicateSectionId) {
  ContainerWriter writer(kKind);
  writer.add_section(1, payload_of({1}));
  EXPECT_EQ(code_of([&] { writer.add_section(1, payload_of({2})); }),
            SnapshotErrorCode::kFormatViolation);
}

TEST(Container, ByteReaderRejectsOverrun) {
  const auto bytes = payload_of({1, 2, 3});
  ByteReader r(bytes);
  EXPECT_EQ(r.read<std::uint8_t>(), 1);
  EXPECT_EQ(code_of([&] { r.read<std::uint32_t>(); }),
            SnapshotErrorCode::kMalformedSection);
}

TEST(Container, SerializeIsDeterministic) {
  EXPECT_EQ(sample_image(), sample_image());
}

// A SliceWriter never writes outside its slice: an overrun throws with
// the bytes past the slice untouched, and finish() refuses a slice left
// short — both typed, so a size pass that disagrees with its write pass
// cannot put a stray byte on disk.
TEST(Container, SliceWriterRefusesOverrunAndUnderrun) {
  std::vector<std::byte> buf(8, std::byte{0xEE});
  SliceWriter over(std::span<std::byte>(buf).first(6));
  over.write(std::uint32_t{1});
  EXPECT_EQ(code_of([&] { over.write(std::uint32_t{2}); }),
            SnapshotErrorCode::kFormatViolation);
  EXPECT_EQ(code_of([&] { over.write_bytes(payload_of({1, 2, 3})); }),
            SnapshotErrorCode::kFormatViolation);
  EXPECT_EQ(buf[4], std::byte{0xEE});
  EXPECT_EQ(buf[6], std::byte{0xEE});

  SliceWriter under(std::span<std::byte>(buf).first(6));
  under.write(std::uint32_t{1});
  EXPECT_EQ(code_of([&] { under.finish(); }),
            SnapshotErrorCode::kFormatViolation);
  under.write(std::uint16_t{2});
  EXPECT_EQ(under.finish(), crc32(std::span<const std::byte>(buf).first(6)));
}

// A sized section fills its slice of the image in place; the image is
// the one a byte-vector section with the same bytes produces, and the
// fill's CRC lands in the section table.
TEST(Container, SizedSectionMatchesItsByteVector) {
  ContainerWriter sized(kKind);
  sized.add_section(1, payload_of({1, 2, 3, 4, 5}));
  sized.add_section(
      2, SectionWriter{24, [](std::span<std::byte> out) {
                         SliceWriter w(out);
                         for (std::uint64_t v : {42ull, 7ull, 0xdeadbeefull}) {
                           w.write(v);
                         }
                         return w.finish();
                       }});
  EXPECT_EQ(sized.serialize(), sample_image());
}

// A fill that throws aborts the commit before any storage op: no temp
// file, and the target keeps its previous contents.
TEST(Container, FailingFillCommitsNothing) {
  const std::string path =
      testsupport::fresh_temp_path("sybil_container_", "fill.snap");
  ContainerWriter good(kKind);
  good.add_section(1, payload_of({9}));
  good.commit(path, SyncMode::kNever);
  FaultyVfs vfs;
  const std::uint64_t ops_before = vfs.ops();
  ContainerWriter bad(kKind);
  bad.add_section(1, SectionWriter{4, [](std::span<std::byte> out) {
                                     SliceWriter w(out);
                                     w.write(std::uint16_t{1});  // 2 of 4
                                     return w.finish();
                                   }});
  EXPECT_EQ(code_of([&] { bad.commit(path, SyncMode::kNever, &vfs); }),
            SnapshotErrorCode::kFormatViolation);
  EXPECT_EQ(vfs.ops(), ops_before);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const ContainerReader reader(path, kKind);
  EXPECT_EQ(reader.section(1).size(), 1u);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)
/// Durability-knob regression: SyncMode::kEnv commits fsync the image
/// and the parent directory unless SYBIL_IO_FSYNC opts out, and
/// SyncMode::kAlways ignores the knob. Counted by a fault-free
/// FaultyVfs (two per synced commit: file + directory), so the check
/// holds with instrumentation compiled out too.
TEST(Container, FsyncKnobGovernsEnvSyncCommits) {
  const char* prior = std::getenv("SYBIL_IO_FSYNC");
  const std::string saved = prior == nullptr ? "" : prior;
  const std::string path =
      testsupport::fresh_temp_path("sybil_container_", "fsync.sybs");

  const auto commits_with = [&](const char* knob, SyncMode sync) {
    if (knob == nullptr) {
      ::unsetenv("SYBIL_IO_FSYNC");
    } else {
      ::setenv("SYBIL_IO_FSYNC", knob, 1);
    }
    FaultyVfs vfs;
    ContainerWriter writer(kKind);
    writer.add_section(1, payload_of({1, 2, 3}));
    writer.commit(path, sync, &vfs);
    return vfs.fsyncs();
  };

  EXPECT_EQ(commits_with(nullptr, SyncMode::kEnv), 2u);  // durable default
  EXPECT_EQ(commits_with("1", SyncMode::kEnv), 2u);
  EXPECT_EQ(commits_with("0", SyncMode::kEnv), 0u);   // knob opts out
  EXPECT_EQ(commits_with("off", SyncMode::kEnv), 0u);
  EXPECT_EQ(commits_with("0", SyncMode::kAlways), 2u);  // knob ignored
  EXPECT_EQ(commits_with("1", SyncMode::kNever), 0u);

  if (prior == nullptr) {
    ::unsetenv("SYBIL_IO_FSYNC");
  } else {
    ::setenv("SYBIL_IO_FSYNC", saved.c_str(), 1);
  }
  std::remove(path.c_str());
}
#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace sybil::io
