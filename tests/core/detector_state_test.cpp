// Byte pin of the stream-detector state codec (core/detector_state.h).
//
// The service checkpoint golden (tests/data/service_ckpt_v3.sybs) stores
// an opaque stream blob, so nothing else freezes what
// serialize_stream_state writes. This suite builds one detector from a
// fixed option set and a fixed event list that leaves every section of
// the blob non-empty, then pins the blob's size and CRC-32 and checks
// that save -> restore -> save reproduces the same bytes.
#include "core/detector_state.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/stream_detector.h"
#include "io/crc32.h"
#include "osn/events.h"

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
  EXPECT_EQ(blob.size(), 11798u);
  EXPECT_EQ(io::crc32(blob), 0x570a6470u);
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

}  // namespace
}  // namespace sybil::core
