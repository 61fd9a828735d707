// Read-only file mapping with a portable fallback.
//
// On POSIX the file is mmap'd, so a container is checked and decoded
// straight out of the page cache with no read+memcpy first. Only where
// mmap is unavailable or fails is the file read() into an owned buffer;
// callers see the same span either way. This opens the file directly,
// not through an io::Vfs, so container reads are outside storage fault
// injection (see io/vfs.h).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sybil::io {

class MappedFile {
 public:
  /// Maps (or, where that fails, reads) the whole file. Throws
  /// SnapshotError(kOpenFailed) if the file cannot be opened or read.
  static std::unique_ptr<const MappedFile> open(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }
  std::size_t size() const noexcept { return size_; }

 private:
  MappedFile() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> owned_;  // fallback storage when !mapped_
};

}  // namespace sybil::io
