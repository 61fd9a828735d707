// Typed error taxonomy for persistence code.
//
// Every loader in the tree — the binary container (io/container.h), the
// snapshot payload decoders, the service checkpoint reader and the
// plain-text edge-list parser (graph/io.h) — reports failure through
// SnapshotError, so callers can branch on *why* a file was rejected
// (retry on kOpenFailed, regenerate on kChecksumMismatch, upgrade on
// kUnsupportedVersion) instead of string-matching what().
//
// Header-only on purpose: sybil_graph's text loader shares the taxonomy
// without linking sybil_io (which itself links sybil_graph).
#pragma once

#include <stdexcept>
#include <string>

namespace sybil::io {

enum class SnapshotErrorCode {
  kOpenFailed,          // file missing or unreadable
  kWriteFailed,         // write/fsync/rename failed; no partial file left
  kTruncated,           // file shorter than its header/section table claims
  kBadMagic,            // not a sybil snapshot (or not this text format)
  kBadEndianness,       // written on an incompatible-endian machine
  kUnsupportedVersion,  // format version newer than this build understands
  kWrongPayload,        // valid container, but not the expected payload kind
  kChecksumMismatch,    // a section's CRC32 does not match its bytes
  kMalformedSection,    // section missing, overlapping, misaligned or short
  kFormatViolation,     // payload decodes but breaks a format invariant
};

/// Returns a stable identifier ("truncated", "bad-magic", ...) for
/// logging and test assertions.
constexpr const char* to_string(SnapshotErrorCode code) noexcept {
  switch (code) {
    case SnapshotErrorCode::kOpenFailed: return "open-failed";
    case SnapshotErrorCode::kWriteFailed: return "write-failed";
    case SnapshotErrorCode::kTruncated: return "truncated";
    case SnapshotErrorCode::kBadMagic: return "bad-magic";
    case SnapshotErrorCode::kBadEndianness: return "bad-endianness";
    case SnapshotErrorCode::kUnsupportedVersion: return "unsupported-version";
    case SnapshotErrorCode::kWrongPayload: return "wrong-payload";
    case SnapshotErrorCode::kChecksumMismatch: return "checksum-mismatch";
    case SnapshotErrorCode::kMalformedSection: return "malformed-section";
    case SnapshotErrorCode::kFormatViolation: return "format-violation";
  }
  return "unknown";
}

/// Thrown by every loader/saver in io/, service/ and graph/io.
/// Derives from std::runtime_error so pre-existing catch sites keep
/// working; new code should catch SnapshotError and inspect code().
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& detail)
      : std::runtime_error(std::string("snapshot [") + to_string(code) +
                           "]: " + detail),
        code_(code) {}

  SnapshotErrorCode code() const noexcept { return code_; }

 private:
  SnapshotErrorCode code_;
};

}  // namespace sybil::io
