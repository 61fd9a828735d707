#include "core/realtime_detector.h"

#include <gtest/gtest.h>

namespace sybil::core {
namespace {

/// Builds a network with one blatant Sybil (burst of unreciprocated
/// stranger requests) and one normal user.
struct Scenario {
  osn::Network net;
  osn::NodeId sybil;
  osn::NodeId normal;

  Scenario() {
    osn::Account s;
    s.kind = osn::AccountKind::kSybil;
    sybil = net.add_account(s);
    normal = net.add_account(osn::Account{});
    // 60 stranger invites within one hour, 25% accepted.
    for (int i = 0; i < 60; ++i) {
      const auto victim = net.add_account(osn::Account{});
      net.send_request(sybil, victim, 0.2, 0.5, /*stranger*/ 0);
    }
    int k = 0;
    net.process_responses(1.0, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
      return (k++ % 4) == 0;
    });
    // The normal user sends 2 FoF invites, both accepted.
    const auto f1 = net.add_account(osn::Account{});
    const auto f2 = net.add_account(osn::Account{});
    net.send_request(normal, f1, 0.1, 0.6, /*fof*/ 1);
    net.send_request(normal, f2, 0.4, 0.7, /*fof*/ 1);
    net.process_responses(
        1.0, [](osn::NodeId, osn::NodeId, std::uint8_t) { return true; });
  }
};

TEST(RealTime, SweepFlagsOnlySybil) {
  Scenario sc;
  RealTimeDetector detector;
  const FlagBatch flagged =
      detector.sweep(sc.net, {sc.sybil, sc.normal}, /*now=*/2.0);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].account, sc.sybil);
  EXPECT_DOUBLE_EQ(flagged[0].flagged_at, 2.0);
  // The record carries the features the rule fired on.
  EXPECT_LT(flagged[0].features.outgoing_accept_ratio, 0.5);
  EXPECT_EQ(flagged.ids(), std::vector<osn::NodeId>{sc.sybil});
  EXPECT_TRUE(detector.already_flagged(sc.sybil));
  EXPECT_FALSE(detector.already_flagged(sc.normal));
}

TEST(RealTime, FlaggedOnceNotReflagged) {
  Scenario sc;
  RealTimeDetector detector;
  EXPECT_EQ(detector.sweep(sc.net, {sc.sybil}).size(), 1u);
  EXPECT_EQ(detector.sweep(sc.net, {sc.sybil}).size(), 0u);
  EXPECT_EQ(detector.flagged_count(), 1u);
}

TEST(RealTime, BannedAccountsSkipped) {
  Scenario sc;
  sc.net.ban(sc.sybil, 2.0);
  RealTimeDetector detector;
  EXPECT_TRUE(detector.sweep(sc.net, {sc.sybil}).empty());
}

TEST(RealTime, LowActivityAccountNeverFlagged) {
  osn::Network net;
  const auto quiet = net.add_account(osn::Account{});
  const auto other = net.add_account(osn::Account{});
  // A single unanswered stranger request: ratios look awful but the
  // min-requests guard must hold.
  net.send_request(quiet, other, 0.0, 0.5);
  net.process_responses(
      1.0, [](osn::NodeId, osn::NodeId, std::uint8_t) { return false; });
  RealTimeDetector detector;
  EXPECT_TRUE(detector.sweep(net, {quiet}).empty());
}

/// Confirmations feed the default tuner, which retunes the rule at the
/// fixed cadence of 200 confirmations and not before.
TEST(RealTime, AdaptiveFeedbackRetunesRule) {
  RealTimeDetector detector;
  const double initial_rate = detector.rule().invite_rate_min;
  SybilFeatures normal_f;
  normal_f.invite_rate_short = 1.0;
  normal_f.outgoing_accept_ratio = 0.9;
  normal_f.clustering_coefficient = 0.08;
  for (int i = 0; i < 199; ++i) detector.confirm(normal_f, false);
  EXPECT_DOUBLE_EQ(detector.rule().invite_rate_min, initial_rate);
  detector.confirm(normal_f, false);
  EXPECT_LT(detector.rule().invite_rate_min, initial_rate);
}

}  // namespace
}  // namespace sybil::core
