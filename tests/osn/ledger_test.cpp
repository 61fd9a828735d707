#include "osn/ledger.h"

#include <gtest/gtest.h>

namespace sybil::osn {
namespace {

TEST(Ledger, StartsEmpty) {
  RequestLedger led;
  EXPECT_EQ(led.sent(), 0u);
  EXPECT_EQ(led.received(), 0u);
  EXPECT_DOUBLE_EQ(led.short_term_rate(), 0.0);
  EXPECT_DOUBLE_EQ(led.long_term_rate(400.0), 0.0);
}

TEST(Ledger, CountsSentAndAccepted) {
  RequestLedger led;
  led.record_sent(1.0);
  led.record_sent(1.5);
  led.record_sent_accepted();
  led.record_received();
  led.record_received_accepted();
  EXPECT_EQ(led.sent(), 2u);
  EXPECT_EQ(led.sent_accepted(), 1u);
  EXPECT_EQ(led.received(), 1u);
  EXPECT_EQ(led.received_accepted(), 1u);
}

TEST(Ledger, HourBuckets) {
  RequestLedger led;
  // 3 invites in hour 0, 1 in hour 5.
  led.record_sent(0.1);
  led.record_sent(0.5);
  led.record_sent(0.9);
  led.record_sent(5.2);
  EXPECT_EQ(led.active_hours(), 2u);
  EXPECT_EQ(led.max_hourly(), 3u);
  EXPECT_DOUBLE_EQ(led.short_term_rate(), 2.0);  // 4 sent / 2 active hours
}

TEST(Ledger, LongTermRateUsesLifetime) {
  RequestLedger led;
  led.record_sent(10.0);
  led.record_sent(19.0);
  // Lifetime = 19 - 10 + 1 = 10h, under the 400h cap → 2/10.
  EXPECT_DOUBLE_EQ(led.long_term_rate(400.0), 0.2);
  // A tighter window caps the denominator: 2/5.
  EXPECT_DOUBLE_EQ(led.long_term_rate(5.0), 0.4);
}

/// A log need not be time-sorted within an hour: the lifetime spans the
/// earliest to the latest send whatever order they were recorded in.
TEST(Ledger, LifetimeIgnoresRecordingOrder) {
  RequestLedger led;
  led.record_sent(10.8);
  led.record_sent(10.2);
  led.record_sent(12.0);
  EXPECT_DOUBLE_EQ(led.first_send(), 10.2);
  EXPECT_DOUBLE_EQ(led.last_send(), 12.0);
  EXPECT_DOUBLE_EQ(led.long_term_rate(400.0), 3.0 / 2.8);
}

TEST(Ledger, BurstThenSilenceKeepsShortRateHigh) {
  RequestLedger led;
  for (int i = 0; i < 50; ++i) led.record_sent(3.0 + i * 0.01);
  EXPECT_DOUBLE_EQ(led.short_term_rate(), 50.0);
  // Long-window rate is diluted by the idle span only up to lifetime.
  EXPECT_NEAR(led.long_term_rate(400.0), 50.0 / 1.49, 1.0);
}

TEST(Ledger, NegativePreWindowTimesWork) {
  RequestLedger led;
  led.record_sent(-5.5);
  led.record_sent(-5.2);
  EXPECT_EQ(led.active_hours(), 1u);
  EXPECT_EQ(led.max_hourly(), 2u);
}

}  // namespace
}  // namespace sybil::osn
