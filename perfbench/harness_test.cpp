// Unit tests of the benchmark's harness helpers.
#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportsSampleCountAndTenBeyond) {
  const Percentile p = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.reportable());
}

TEST(Percentile, FewerThanTenBeyondIsNotReportable) {
  const Percentile p = percentile(one_to(999), 0.99);
  EXPECT_EQ(p.samples, 999u);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.reportable());
}

TEST(Percentile, MedianAndEdges) {
  EXPECT_EQ(percentile(one_to(5), 0.5).value, 3.0);
  EXPECT_EQ(percentile(one_to(5), 1.0).value, 5.0);
  EXPECT_EQ(percentile(one_to(5), 1.0).beyond, 0u);
  const Percentile empty = percentile({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.reportable());
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(std::uint32_t id, std::uint32_t parent, const char* name,
          std::int64_t start, std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      span(0, Span::kNoParent, "batch", 0, 100),
      span(1, 0, "offer", 10, 30),
      span(2, 0, "offer", 20, 50),  // overlaps its sibling: counted once
      span(3, 0, "pump", 60, 70),
      span(4, 3, "inner", 62, 65),
  };
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self.at("batch"), 50e-9);  // 100 - [10,50] - [60,70]
  EXPECT_DOUBLE_EQ(self.at("offer"), 50e-9);  // 20 + 30, no children
  EXPECT_DOUBLE_EQ(self.at("pump"), 7e-9);
  EXPECT_DOUBLE_EQ(self.at("inner"), 3e-9);
  const auto total = total_seconds(spans);
  EXPECT_DOUBLE_EQ(total.at("batch"), 100e-9);
  EXPECT_DOUBLE_EQ(total.at("offer"), 50e-9);
}

TEST(Spans, RecorderNestsAndSharesGroups) {
  SpanRecorder rec;
  EXPECT_EQ(rec.open("off", 1), Span::kNoParent);  // disabled: nothing kept
  rec.close(Span::kNoParent);
  EXPECT_TRUE(rec.spans().empty());

  rec.set_enabled(true);
  {
    ScopedSpan batch(rec, "batch", 7);
    ScopedSpan offer(rec, "offer", 7);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, Span::kNoParent);
  EXPECT_EQ(rec.spans()[1].parent, rec.spans()[0].id);
  EXPECT_EQ(rec.spans()[1].group, 7u);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);
  EXPECT_EQ(rec.since(1).size(), 1u);
}

TEST(Memory, BaselineIsSubtractedAndNeverNegative) {
  const char* status =
      "Name:\tperfbench\nVmHWM:\t  307200 kB\nVmRSS:\t  102400 kB\n";
  EXPECT_EQ(status_kb(status, "VmHWM"), 307200);
  EXPECT_EQ(status_kb(status, "VmRSS"), 102400);
  EXPECT_EQ(status_kb(status, "VmSwap"), -1);
  EXPECT_EQ(status_kb(status, "Vm"), -1);  // a prefix is not a field
  EXPECT_DOUBLE_EQ(rss_growth_mb(307200, 102400), 200.0);
  EXPECT_DOUBLE_EQ(rss_growth_mb(1000, 2000), 0.0);
}

TEST(Memory, LiveProcessIsReadable) {
  EXPECT_GT(current_rss_kb(), 0);
  EXPECT_GE(peak_rss_kb(), current_rss_kb());
}

sybil::core::FlagRecord flag(sybil::osn::NodeId account, double at) {
  sybil::core::FlagRecord r;
  r.account = account;
  r.flagged_at = at;
  r.features.invite_rate_short = 5.0 + account;
  return r;
}

TEST(Digest, FlagDigestIsCanonicalAndSensitive) {
  const std::uint64_t a = flag_digest({flag(1, 2.0), flag(2, 1.0), flag(3, 1.0)});
  const std::uint64_t b = flag_digest({flag(3, 1.0), flag(1, 2.0), flag(2, 1.0)});
  EXPECT_EQ(a, b);  // drain order does not matter
  EXPECT_NE(a, flag_digest({flag(1, 2.5), flag(2, 1.0), flag(3, 1.0)}));
  EXPECT_NE(a, flag_digest({flag(1, 2.0), flag(2, 1.0)}));
  sybil::core::FlagRecord annotated = flag(3, 1.0);
  annotated.defense_rank = 0.5;  // annotation columns are not identity
  EXPECT_EQ(a, flag_digest({flag(1, 2.0), flag(2, 1.0), annotated}));
  EXPECT_EQ(flag_digest({}), 0xcbf29ce484222325ull);
}

TEST(Digest, StreamDigestCoversEveryField) {
  using sybil::osn::Event;
  using sybil::osn::EventType;
  const std::vector<Event> base = {{EventType::kRequestSent, 1, 2, 0.5}};
  const std::uint64_t d = stream_digest(base);
  EXPECT_NE(d, stream_digest({{EventType::kRequestSent, 1, 2, 0.25}}));
  EXPECT_NE(d, stream_digest({{EventType::kRequestSent, 2, 1, 0.5}}));
  EXPECT_NE(d, stream_digest({{EventType::kRequestAccepted, 1, 2, 0.5}}));
  EXPECT_EQ(d, stream_digest(base));
}

TEST(Storage, ClassifiesServicePaths) {
  EXPECT_EQ(CountingVfs::classify("root/shard-0000/wal/seg-1.wal"),
            CountingVfs::kWal);
  EXPECT_EQ(CountingVfs::classify("root/shard-0000/ckpt/ckpt-1.sybs"),
            CountingVfs::kCheckpoint);
  EXPECT_EQ(CountingVfs::classify("root/other.bin"), CountingVfs::kOther);
}

}  // namespace
}  // namespace perfbench
