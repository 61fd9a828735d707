// A container's sections as bytes, and back again: lets a test hand a
// decoder chosen section bytes behind CRCs that pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/container.h"

namespace sybil::iotest {

using Sections = std::map<std::uint32_t, std::vector<std::byte>>;

/// Every section of the container at `path`, by id (every format in
/// this tree numbers its sections below 64).
inline Sections read_sections(const std::string& path, io::PayloadKind kind) {
  const io::ContainerReader reader(path, kind);
  Sections out;
  for (std::uint32_t id = 0; id < 64; ++id) {
    if (!reader.has_section(id)) continue;
    const auto bytes = reader.section(id);
    out[id].assign(bytes.begin(), bytes.end());
  }
  return out;
}

/// Writes `sections` to `path` as a well-formed container of `kind`.
inline void write_sections(const Sections& sections, io::PayloadKind kind,
                           const std::string& path) {
  io::ContainerWriter writer(kind);
  for (const auto& [id, bytes] : sections) writer.add_section(id, bytes);
  writer.commit(path, io::SyncMode::kNever);
}

/// `values` as a section's bytes.
template <typename T>
std::vector<std::byte> pod_bytes(const std::vector<T>& values) {
  const auto* p = reinterpret_cast<const std::byte*>(values.data());
  return {p, p + values.size() * sizeof(T)};
}

}  // namespace sybil::iotest
