#include "core/detector_options.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/realtime_detector.h"
#include "core/stream_detector.h"

namespace sybil::core {
namespace {

TEST(DetectorOptions, DefaultsAreValid) {
  EXPECT_NO_THROW(DetectorOptions{}.validate());
}

TEST(DetectorOptions, RejectsOutOfRangeRuleRatios) {
  DetectorOptions opts;
  opts.rule.outgoing_accept_max = 1.5;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.rule.outgoing_accept_max = -0.1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.rule.invite_rate_min = -1.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.rule.clustering_max = 2.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(DetectorOptions, RejectsNaNRuleFields) {
  DetectorOptions opts;
  opts.rule.invite_rate_min = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(DetectorOptions, RejectsBadIngestOptions) {
  DetectorOptions opts;
  opts.ingest.watermark_hours = -1.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.ingest.watermark_hours = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.ingest.watermark_hours = std::numeric_limits<double>::infinity();
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = {};
  opts.ingest.max_account_id = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(DetectorOptions, ZeroWatermarkIsValid) {
  DetectorOptions opts;
  opts.ingest.watermark_hours = 0.0;  // release immediately
  EXPECT_NO_THROW(opts.validate());
}

TEST(DetectorOptions, ErrorNamesTheOffendingField) {
  DetectorOptions opts;
  opts.ingest.max_account_id = 0;
  try {
    opts.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_account_id"), std::string::npos);
  }
}

/// Both detector front-ends validate at construction: a bad options
/// value never produces a half-built detector.
TEST(DetectorOptions, DetectorsRejectInvalidOptionsOnConstruction) {
  DetectorOptions opts;
  opts.rule.clustering_max = 2.0;
  EXPECT_THROW(StreamDetector{opts}, std::invalid_argument);
  EXPECT_THROW(RealTimeDetector{opts}, std::invalid_argument);
}

/// One options value configures both halves of a deployment; the fields
/// each path ignores are harmless.
TEST(DetectorOptions, OneValueConfiguresBothDetectorPaths) {
  DetectorOptions opts;
  opts.rule.invite_rate_min = 5.0;
  StreamDetector stream(opts);
  RealTimeDetector realtime(opts);
  EXPECT_DOUBLE_EQ(realtime.rule().invite_rate_min, 5.0);
  EXPECT_DOUBLE_EQ(stream.rule().invite_rate_min, 5.0);
}

}  // namespace
}  // namespace sybil::core
