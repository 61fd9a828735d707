// Untrusted-bytes hardening of the scenario manifest decoder
// (docs/FORMATS.md §9): the committed golden manifest is damaged one
// byte at a time (every offset, set to 0x00, 0xFF and three seeded
// values) and cut at every length. parse_manifest must either return a
// manifest that passes validate() or throw std::invalid_argument; no
// other exception escapes, and under the asan preset (ctest --preset
// asan-io) it never reads out of bounds.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>

#include "chaos/manifest.h"

namespace sybil::chaos {
namespace {

std::string golden_text() {
  std::ifstream in(std::string(SYBIL_TEST_DATA_DIR) + "/scenario_golden.scn",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// True iff `text` parses into a valid manifest; false iff it is
/// refused with std::invalid_argument. Anything else fails the test.
bool parses(const std::string& text) {
  try {
    const ScenarioManifest m = parse_manifest(text);
    EXPECT_NO_THROW(m.validate());
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped refusal: " << e.what();
    return false;
  }
}

TEST(ScenarioManifestFuzz, EveryByteFlipParsesOrThrowsTyped) {
  const std::string text = golden_text();
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(parses(text));
  std::mt19937_64 rng(0x5C3u);
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    unsigned char values[5] = {0x00, 0xFF, 0, 0, 0};
    for (int k = 2; k < 5; ++k) values[k] = static_cast<unsigned char>(rng());
    for (const unsigned char value : values) {
      if (static_cast<char>(value) == text[pos]) continue;
      SCOPED_TRACE("byte " + std::to_string(pos) + " := " +
                   std::to_string(value));
      std::string damaged = text;
      damaged[pos] = static_cast<char>(value);
      if (!parses(damaged)) ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
}

TEST(ScenarioManifestFuzz, EveryTruncationParsesOrThrowsTyped) {
  const std::string text = golden_text();
  std::size_t refused = 0;
  for (std::size_t len = 0; len < text.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    if (!parses(text.substr(0, len))) ++refused;
  }
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace sybil::chaos
