#include "io/mmap_file.h"

#include "io/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define SYBIL_IO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SYBIL_IO_HAVE_MMAP 0
#include <fstream>
#endif

namespace sybil::io {

MappedFile::~MappedFile() {
#if SYBIL_IO_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
}

std::unique_ptr<const MappedFile> MappedFile::open(const std::string& path) {
  auto file = std::unique_ptr<MappedFile>(new MappedFile());
#if SYBIL_IO_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot open " + path);
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      file->data_ = static_cast<const std::byte*>(map);
      file->size_ = size;
      file->mapped_ = true;
      return file;
    }
    // mmap refused (e.g. special filesystem): fall through to read().
  }
  file->owned_.resize(size);
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n =
        ::read(fd, file->owned_.data() + got, size - got);
    if (n < 0) {
      ::close(fd);
      throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                          "read failed: " + path);
    }
    if (n == 0) break;  // file shrank underneath us; header check catches it
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  file->owned_.resize(got);
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot open " + path);
  }
  is.seekg(0, std::ios::end);
  file->owned_.resize(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  if (!file->owned_.empty() &&
      !is.read(reinterpret_cast<char*>(file->owned_.data()),
               static_cast<std::streamsize>(file->owned_.size()))) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "read failed: " + path);
  }
#endif
  file->data_ = file->owned_.data();
  file->size_ = file->owned_.size();
  file->mapped_ = false;
  return file;
}

}  // namespace sybil::io
