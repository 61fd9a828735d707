// Byte pin and decoder checks of the stream-detector state codec
// (core/detector_state.h, docs/FORMATS.md §5.5).
//
// The service checkpoint goldens (tests/data/service_ckpt_v*.sybs) store
// an opaque stream blob, so nothing else freezes what
// serialize_stream_state writes. This suite builds one detector from a
// fixed option set and a fixed event list that leaves every section of
// the blob non-empty, then pins the blob's size and CRC-32, checks
// that save -> restore -> save reproduces the same bytes, and that a
// restored detector, handed its in-flight events back, continues
// exactly like the original. Hand-encoded blobs then check that the
// decoder refuses, with a typed error, every input no detector could
// have written. A detector large enough to span several encoder chunks
// checks that the bytes and CRC do not depend on the thread count.
#include "core/detector_state.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/stream_detector.h"
#include "io/container.h"
#include "io/crc32.h"
#include "io/error.h"
#include "osn/events.h"
#include "osn/ledger.h"

namespace sybil::core {
namespace {

using osn::Event;
using osn::EventType;

DetectorOptions fixture_options() {
  DetectorOptions o;
  o.rule.invite_rate_min = 3.0;
  o.rule.outgoing_accept_max = 0.5;
  o.rule.clustering_max = 0.5;
  o.rule.min_requests = 5;
  o.ingest.watermark_hours = 6.0;
  return o;
}

/// splitmix64: a generator local to the test, so the fixture does not
/// move when a library RNG does.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// (event, seq) in arrival order. Times are jittered by up to 2 h over a
/// 40 h stream, so the last ~6 h stay in the reorder buffer; seqs step
/// by 3 with a 50-seq gap every 40 events, so the buffered seqs span
/// several 64-seq bit-words with holes. Account 50 bursts rejected
/// requests (a pending flag), account 7 is banned, and the list carries
/// a duplicate delivery, a self-request and a time regression (two dead
/// letters), and one event released at exactly the low watermark.
std::vector<std::pair<Event, std::uint64_t>> fixture_events() {
  std::vector<std::pair<Event, std::uint64_t>> out;
  Mix mix{15};
  constexpr int kEvents = 600;
  constexpr graph::NodeId kAccounts = 48;
  for (int i = 0; i < kEvents; ++i) {
    const auto step = static_cast<std::uint64_t>(i);
    const std::uint64_t seq = 3 * step + 50 * (step / 40);
    const double t = 40.0 * i / kEvents + 2.0 * mix.unit();
    const auto a = static_cast<graph::NodeId>(mix.next() % kAccounts);
    auto b = static_cast<graph::NodeId>(mix.next() % kAccounts);
    if (b == a) b = (a + 1) % kAccounts;
    Event e{EventType::kRequestSent, a, b, t};
    if (i < static_cast<int>(kAccounts)) {
      e = Event{EventType::kAccountCreated, static_cast<graph::NodeId>(i),
                static_cast<graph::NodeId>(i), t};
    } else if (i >= 200 && i < 240) {
      // The burst: account 50, outside the random traffic, asks 20
      // strangers within ~3 h and every one of them says no.
      e = Event{i % 2 == 0 ? EventType::kRequestSent
                           : EventType::kRequestRejected,
                50, static_cast<graph::NodeId>((i - 200) / 2), t};
    } else {
      switch (mix.next() % 4) {
        case 0: e.type = EventType::kRequestSent; break;
        case 1: e.type = EventType::kRequestAccepted; break;
        case 2: e.type = EventType::kFriendshipSeeded; break;
        default: e.type = EventType::kRequestRejected; break;
      }
    }
    out.emplace_back(e, seq);
    if (i == 300) {
      out.emplace_back(Event{EventType::kAccountBanned, 7, 7, t}, seq + 1);
    }
    if (i == 400) out.emplace_back(out[out.size() - 5]);  // redelivery
    if (i == 450) {  // self-request
      out.emplace_back(Event{EventType::kRequestSent, 5, 5, t}, seq + 1);
    }
    if (i == 500) {  // far behind the low watermark
      out.emplace_back(Event{EventType::kRequestSent, 5, 6, 1.0}, seq + 1);
    }
    // Released but not yet pruned needs an event time exactly at the
    // final low watermark (release is time <= low, pruning time < low).
    if (i == 525) {
      out.emplace_back(Event{EventType::kRequestSent, 9, 10, 36.0}, seq + 1);
    }
  }
  // The newest event sets the low watermark to exactly 36 h.
  out.emplace_back(Event{EventType::kRequestSent, 11, 12, 42.0},
                   3 * kEvents + 50 * (kEvents / 40));
  return out;
}

StreamDetector fixture_detector() {
  StreamDetector d(fixture_options());
  for (const auto& [e, seq] : fixture_events()) d.ingest(e, seq);
  return d;
}

TEST(DetectorState, FixtureFillsEverySection) {
  StreamDetector d = fixture_detector();
  EXPECT_GT(d.buffered(), 0u);
  EXPECT_GT(d.deduped_total(), 0u);
  EXPECT_EQ(d.dead_letters().size(), 2u);
  EXPECT_GT(d.accounts_seen(), 0u);
  // The pending flag survives in the blob: a restored copy reports it.
  StreamDetector copy(fixture_options());
  restore_stream_state(copy, serialize_stream_state(d));
  EXPECT_FALSE(copy.take_flagged().empty());
}

// A change here is a format change (bump kDetectorStateVersion).
TEST(DetectorState, StreamStateBytesAreFrozen) {
  const std::vector<std::byte> blob =
      serialize_stream_state(fixture_detector());
  EXPECT_EQ(blob.size(), 6894u);
  EXPECT_EQ(io::crc32(blob), 0x149ab8efu);
  // The encoder reserves its exact size up front: no regrowth, no slack.
  EXPECT_EQ(blob.capacity(), blob.size());
}

TEST(DetectorState, SaveRestoreSaveIsByteStable) {
  const std::vector<std::byte> first =
      serialize_stream_state(fixture_detector());
  StreamDetector restored(fixture_options());
  restore_stream_state(restored, first);
  EXPECT_EQ(serialize_stream_state(restored), first);
}

void expect_same_flags(FlagBatch a, FlagBatch b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].account, b[i].account);
    EXPECT_EQ(a[i].flagged_at, b[i].flagged_at);
    EXPECT_EQ(std::memcmp(&a[i].features, &b[i].features,
                          sizeof(SybilFeatures)),
              0);
  }
}

// The restore rebuilds the watcher index, and restore_buffered the
// reorder buffer and its seen seqs, instead of reading them; a
// continuation that leans on all three must run identically on the
// original and on the restored copy.
TEST(DetectorState, RestoredDetectorContinuesIdentically) {
  StreamDetector original = fixture_detector();
  StreamDetector restored(fixture_options());
  restore_stream_state(restored, serialize_stream_state(original));
  // Hand back the in-flight events as the service does from its WAL:
  // every fixture event, since no finish() ran.
  for (const auto& [e, seq] : fixture_events()) {
    restored.restore_buffered(e, seq);
  }
  EXPECT_EQ(restored.buffered(), original.buffered());

  const auto continue_stream = [](StreamDetector& d) {
    // A redelivery of the newest event, still buffered.
    d.ingest(Event{EventType::kRequestSent, 11, 12, 42.0}, 2550);
    // Accepts between every pair of fixture accounts: each new edge
    // scans a watcher list, so every rebuilt list is consulted.
    std::uint64_t seq = 10'000;
    for (graph::NodeId a = 0; a < 48; ++a) {
      for (graph::NodeId b = a + 1; b < 48; ++b) {
        d.ingest(Event{EventType::kRequestAccepted, b, a, 40.0}, seq++);
      }
    }
    d.finish();
  };
  continue_stream(original);
  continue_stream(restored);

  EXPECT_EQ(restored.events_in(), original.events_in());
  EXPECT_EQ(restored.applied_total(), original.applied_total());
  EXPECT_EQ(restored.deduped_total(), original.deduped_total());
  EXPECT_EQ(restored.deadletter_total(), original.deadletter_total());
  EXPECT_EQ(restored.buffered(), original.buffered());
  EXPECT_EQ(restored.banned_party_total(), original.banned_party_total());
  EXPECT_EQ(restored.flagged_total(), original.flagged_total());
  EXPECT_EQ(serialize_stream_state(restored),
            serialize_stream_state(original));
  expect_same_flags(restored.take_flagged(), original.take_flagged());
}

TEST(DetectorState, V2BlobIsRefused) {
  std::vector<std::byte> blob = serialize_stream_state(fixture_detector());
  const std::uint32_t v2 = 2;
  std::memcpy(blob.data(), &v2, sizeof(v2));
  StreamDetector d(fixture_options());
  try {
    restore_stream_state(d, blob);
    ADD_FAILURE() << "v2 blob loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kUnsupportedVersion);
  }
}

/// Restores `blob` into a fresh fixture detector. Returns false when the
/// restore threw the typed taxonomy; any other exception escapes and
/// fails the test.
bool restores(std::span<const std::byte> blob) {
  StreamDetector d(fixture_options());
  try {
    restore_stream_state(d, blob);
    return true;
  } catch (const io::SnapshotError&) {
    return false;
  }
}

// Untrusted-bytes hardening in the style of WalScanFuzz (asan-io runs
// it): the fixture blob damaged one byte at a time, at every offset
// with several seeded values, restores or throws typed. A blob carries
// no checksum (its container does), so many flips load: counters and
// ledger fields take any value.
TEST(DetectorStateFuzz, EveryByteFlipRestoresOrThrowsTyped) {
  const std::vector<std::byte> blob =
      serialize_stream_state(fixture_detector());
  std::mt19937_64 rng(0x5EEDu);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    std::byte values[5] = {std::byte{0x00}, std::byte{0xFF}};
    for (int k = 2; k < 5; ++k) values[k] = static_cast<std::byte>(rng());
    for (const std::byte value : values) {
      if (value == blob[pos]) continue;
      SCOPED_TRACE("byte " + std::to_string(pos) + " := " +
                   std::to_string(std::to_integer<int>(value)));
      std::vector<std::byte> damaged = blob;
      damaged[pos] = value;
      if (!restores(damaged)) ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
}

// Every field has a fixed width or a count ahead of it, so a blob cut
// anywhere short of its end is a read past the end.
TEST(DetectorStateFuzz, EveryTruncationThrowsTyped) {
  const std::vector<std::byte> blob =
      serialize_stream_state(fixture_detector());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_FALSE(restores(std::span(blob).first(len)));
  }
}

void expect_refused(const std::vector<std::byte>& blob,
                    io::SnapshotErrorCode code) {
  StreamDetector d(fixture_options());
  try {
    restore_stream_state(d, blob);
    ADD_FAILURE() << "blob loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

// v3 carried the reorder buffer and the released list, which v4 leaves
// to the WAL.
TEST(DetectorState, V3BlobIsRefused) {
  std::vector<std::byte> blob = serialize_stream_state(fixture_detector());
  const std::uint32_t v3 = 3;
  std::memcpy(blob.data(), &v3, sizeof(v3));
  expect_refused(blob, io::SnapshotErrorCode::kUnsupportedVersion);
}

// The version word and an account count of 2^32 - 1, then nothing: the
// count must be refused before it sizes the account table.
TEST(DetectorState, CountPastBlobEndIsRefused) {
  io::ByteWriter w;
  w.write(kDetectorStateVersion);
  w.write(std::uint64_t{0xFFFFFFFF});
  const std::vector<std::byte> blob = std::move(w).take();
  ASSERT_EQ(blob.size(), 12u);
  expect_refused(blob, io::SnapshotErrorCode::kMalformedSection);
}

/// A hand-encoded v4 blob (docs/FORMATS.md §5.5): one empty-ledger
/// account per first-friend list, no edges or flags, no dead letters,
/// zero counters.
struct Blob {
  std::vector<std::vector<osn::NodeId>> first_friends{{1, 2}, {0}, {0}, {}};

  std::vector<std::byte> encode() const {
    io::ByteWriter w;
    w.write(kDetectorStateVersion);
    w.write(static_cast<std::uint64_t>(first_friends.size()));
    for (const auto& friends : first_friends) {
      osn::write_ledger(w, osn::RequestLedger{});
      w.write(static_cast<std::uint64_t>(friends.size()));
      for (osn::NodeId f : friends) w.write(f);
      w.write(std::uint32_t{0});  // internal links
      w.write(std::uint8_t{0});   // flagged
      w.write(std::uint8_t{0});   // banned
    }
    w.write(std::uint64_t{0});   // edges
    w.write(std::uint64_t{0});   // pending flags
    w.write(std::uint64_t{0});   // flagged total
    w.write(graph::Time{10.0});  // high watermark
    w.write(std::uint64_t{0});   // dead letters
    for (std::size_t i = 0; i < 7 + kStreamErrorCodeCount; ++i) {
      w.write(std::uint64_t{0});  // auto seq and accounting counters
    }
    return std::move(w).take();
  }
};

// The control for the rejection below: the hand encoding is a blob the
// codec itself would write.
TEST(DetectorState, HandEncodedBlobRoundTrips) {
  const std::vector<std::byte> blob = Blob{}.encode();
  StreamDetector d(fixture_options());
  restore_stream_state(d, blob);
  EXPECT_EQ(d.accounts_seen(), 4u);
  EXPECT_EQ(serialize_stream_state(d), blob);
}

/// A detector of `accounts` accounts with random requests, accepts and
/// seeded friendships among them: many edges, first-friend lists of
/// every length and some flags.
StreamDetector large_detector(graph::NodeId accounts, int events) {
  StreamDetector d(fixture_options());
  Mix mix{31};
  for (int i = 0; i < events; ++i) {
    const auto a = static_cast<graph::NodeId>(mix.next() % accounts);
    auto b = static_cast<graph::NodeId>(mix.next() % accounts);
    if (b == a) b = (a + 1) % accounts;
    static constexpr EventType kTypes[] = {
        EventType::kRequestSent, EventType::kRequestAccepted,
        EventType::kFriendshipSeeded, EventType::kRequestRejected};
    const double t = 100.0 * i / events + mix.unit();
    d.ingest(Event{kTypes[mix.next() % 4], a, b, t},
             static_cast<std::uint64_t>(i));
  }
  d.ingest(Event{EventType::kRequestSent, accounts - 1, 0, 101.0},
           static_cast<std::uint64_t>(events));
  d.finish();
  return d;
}

/// The stored edge keys, read past the head and the account records.
std::vector<std::uint64_t> edge_keys(std::span<const std::byte> blob) {
  io::ByteReader r(blob);
  r.read<std::uint32_t>();
  const std::uint64_t accounts = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < accounts; ++i) {
    osn::read_ledger(r);
    const std::uint64_t friends = r.read<std::uint64_t>();
    for (std::uint64_t f = 0; f < friends; ++f) r.read<osn::NodeId>();
    r.read<std::uint32_t>();
    r.read<std::uint8_t>();
    r.read<std::uint8_t>();
  }
  std::vector<std::uint64_t> keys(r.read<std::uint64_t>());
  for (std::uint64_t& k : keys) k = r.read<std::uint64_t>();
  return keys;
}

// The write pass encodes account chunks and the edge sort as parallel
// tasks and folds their CRCs; at 1 and 8 threads it must write the same
// bytes and return the same CRC, which is crc32 of those bytes.
TEST(StreamStateEncoder, BytesAndCrcDoNotDependOnThreadCount) {
  const StreamDetector d = large_detector(24000, 60000);
  ASSERT_GE(chunk_partition(d.accounts_seen(), kStateAccountChunk).size(), 5u);
  const StreamStateEncoder encoder(d);

  set_thread_count(1);
  std::vector<std::byte> one(encoder.size());
  const std::uint32_t crc_one = encoder.write(one);
  set_thread_count(8);
  std::vector<std::byte> eight(encoder.size());
  const std::uint32_t crc_eight = encoder.write(eight);
  set_thread_count(0);  // back to automatic

  EXPECT_EQ(one, eight);
  EXPECT_EQ(crc_one, crc_eight);
  EXPECT_EQ(crc_one, io::crc32(one));
  EXPECT_EQ(serialize_stream_state(d), one);

  // The radix sort gives std::sort's order: strictly ascending keys.
  const std::vector<std::uint64_t> keys = edge_keys(one);
  ASSERT_GT(keys.size(), 10000u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]) << i;
  }

  // And the bytes still decode to the same state.
  StreamDetector restored(fixture_options());
  restore_stream_state(restored, one);
  EXPECT_EQ(serialize_stream_state(restored), one);
}

// The write pass fills exactly the sized byte count: a slice one byte
// short or long is refused, typed, before anything is written.
TEST(StreamStateEncoder, WrongSizedSliceIsRefused) {
  const StreamDetector d = fixture_detector();
  const StreamStateEncoder encoder(d);
  for (const std::size_t size : {encoder.size() - 1, encoder.size() + 1}) {
    std::vector<std::byte> out(size, std::byte{0xEE});
    try {
      encoder.write(out);
      ADD_FAILURE() << "a " << size << "-byte slice was accepted";
    } catch (const io::SnapshotError& e) {
      EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation);
    }
    EXPECT_EQ(out, std::vector<std::byte>(size, std::byte{0xEE}));
  }
}

TEST(DetectorState, FirstFriendOutsideAccountsIsRefused) {
  Blob b;
  b.first_friends[0].push_back(4);  // four accounts: ids 0..3
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

}  // namespace
}  // namespace sybil::core
