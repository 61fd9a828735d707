// Byte pin and decoder checks of the stream-detector state codec
// (core/detector_state.h, docs/FORMATS.md §5.5).
//
// The service checkpoint goldens (tests/data/service_ckpt_v*.sybs) store
// an opaque stream blob, so nothing else freezes what
// serialize_stream_state writes. This suite builds one detector from a
// fixed option set and a fixed event list that leaves every section of
// the blob non-empty, then pins the blob's size and CRC-32, checks
// that save -> restore -> save reproduces the same bytes, and that a
// restored detector continues exactly like the original. Hand-encoded
// blobs then check that the decoder refuses, with a typed error, every
// input no detector could have written.
#include "core/detector_state.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

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
  o.first_friends = 8;
  o.rule.invite_rate_min = 3.0;
  o.rule.outgoing_accept_max = 0.5;
  o.rule.clustering_max = 0.5;
  o.rule.min_requests = 5;
  o.ingest.watermark_hours = 6.0;
  o.ingest.dead_letter_capacity = 4;
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
/// by 3 with a 50-seq gap every 40 events, so the retained seen-seqs
/// span several 64-seq bit-words with holes. Account 50 bursts rejected
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

// Recorded from the codec before its encoder was rewritten for speed;
// a change here is a format change (bump kDetectorStateVersion).
TEST(DetectorState, StreamStateBytesAreFrozen) {
  const std::vector<std::byte> blob =
      serialize_stream_state(fixture_detector());
  EXPECT_EQ(blob.size(), 8790u);
  EXPECT_EQ(io::crc32(blob), 0x521e07e5u);
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

// The restore rebuilds the watcher index and the seen-seq set instead of
// reading them; a continuation that leans on both must run identically
// on the original and on the restored copy.
TEST(DetectorState, RestoredDetectorContinuesIdentically) {
  StreamDetector original = fixture_detector();
  StreamDetector restored(fixture_options());
  restore_stream_state(restored, serialize_stream_state(original));

  const auto continue_stream = [](StreamDetector& d) {
    // Redeliveries: the newest event (still buffered) and the one
    // released at exactly the low watermark (t = 36, not yet pruned).
    d.ingest(Event{EventType::kRequestSent, 11, 12, 42.0}, 2550);
    d.ingest(Event{EventType::kRequestSent, 9, 10, 36.0}, 2226);
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

/// A hand-encoded v3 blob (docs/FORMATS.md §5.5): one empty-ledger
/// account per first-friend list, no edges or flags, the given reorder
/// heap array (seq, event) and released list (time, seq), no dead
/// letters, zero counters.
struct Blob {
  std::vector<std::vector<osn::NodeId>> first_friends{{1, 2}, {0}, {0}, {}};
  std::vector<std::pair<std::uint64_t, Event>> reorder{
      {5, Event{EventType::kRequestSent, 0, 3, 8.0}},
      {7, Event{EventType::kRequestSent, 2, 3, 9.0}}};
  std::vector<std::pair<graph::Time, std::uint64_t>> released{{2.0, 1},
                                                               {3.0, 3}};

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
    w.write(std::uint64_t{0});  // edges
    w.write(std::uint64_t{0});  // pending flags
    w.write(std::uint64_t{0});  // flagged total
    w.write(static_cast<std::uint64_t>(reorder.size()));
    for (const auto& [seq, e] : reorder) {
      w.write(seq);
      w.write(static_cast<std::uint32_t>(e.type));
      w.write(e.actor);
      w.write(e.subject);
      w.write(e.time);
    }
    w.write(static_cast<std::uint64_t>(released.size()));
    for (const auto& [time, seq] : released) {
      w.write(time);
      w.write(seq);
    }
    w.write(graph::Time{10.0});  // high watermark
    w.write(std::uint64_t{0});   // dead letters
    for (std::size_t i = 0; i < 7 + kStreamErrorCodeCount; ++i) {
      w.write(std::uint64_t{0});  // auto seq and accounting counters
    }
    return std::move(w).take();
  }
};

// The control for the rejections below: the hand encoding is a blob the
// codec itself would write.
TEST(DetectorState, HandEncodedBlobRoundTrips) {
  const std::vector<std::byte> blob = Blob{}.encode();
  StreamDetector d(fixture_options());
  restore_stream_state(d, blob);
  EXPECT_EQ(d.buffered(), 2u);
  EXPECT_EQ(serialize_stream_state(d), blob);
}

TEST(DetectorState, FirstFriendOutsideAccountsIsRefused) {
  Blob b;
  b.first_friends[0].push_back(4);  // four accounts: ids 0..3
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

TEST(DetectorState, SeqBothBufferedAndReleasedIsRefused) {
  Blob b;
  b.released.back().second = 5;  // seq 5 is also buffered
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

TEST(DetectorState, InvalidBufferedEventIsRefused) {
  Blob b;
  b.reorder.back().second.actor =
      fixture_options().ingest.max_account_id + 1;
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

TEST(DetectorState, ReorderArrayThatIsNotAHeapIsRefused) {
  Blob b;
  std::swap(b.reorder[0], b.reorder[1]);  // the later event on top
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

TEST(DetectorState, ReleasedOutOfOrderIsRefused) {
  Blob b;
  std::swap(b.released[0], b.released[1]);
  expect_refused(b.encode(), io::SnapshotErrorCode::kFormatViolation);
}

}  // namespace
}  // namespace sybil::core
