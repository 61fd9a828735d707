#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/parallel.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---- percentiles -------------------------------------------------------

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index =
      std::min(n - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  p.value = samples[index];
  p.samples = n;
  p.beyond = n - 1 - index;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- spans -------------------------------------------------------------

std::uint32_t SpanRecorder::open(std::string_view name, std::uint64_t group) {
  if (!enabled_) return Span::kNoParent;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size());
  s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
  s.group = group;
  s.name = std::string(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id) {
  if (id == Span::kNoParent) return;
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<Span> SpanRecorder::since(std::size_t from) const {
  if (from >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(from),
                           spans_.end());
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":";
    if (s.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"group\":" << s.group << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> total_seconds(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

// ---- memory --------------------------------------------------------------

long status_kb(std::string_view text, std::string_view field) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.size() > field.size() && line.substr(0, field.size()) == field &&
        line[field.size()] == ':') {
      return std::strtol(std::string(line.substr(field.size() + 1)).c_str(),
                         nullptr, 10);
    }
    pos = eol + 1;
  }
  return -1;
}

double rss_growth_mb(long peak_kb, long baseline_kb) {
  return static_cast<double>(std::max(0L, peak_kb - baseline_kb)) / 1024.0;
}

long current_rss_kb() { return status_kb(read_file("/proc/self/status"), "VmRSS"); }

long peak_rss_kb() { return status_kb(read_file("/proc/self/status"), "VmHWM"); }

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// ---- digests -------------------------------------------------------------

std::uint64_t flag_digest(std::vector<sybil::core::FlagRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const sybil::core::FlagRecord& a,
               const sybil::core::FlagRecord& b) {
              if (a.flagged_at != b.flagged_at) {
                return a.flagged_at < b.flagged_at;
              }
              return a.account < b.account;
            });
  std::uint64_t h = kFnvOffset;
  for (const sybil::core::FlagRecord& r : records) {
    fnv_mix(h, &r.account, sizeof(r.account));
    fnv_mix(h, &r.flagged_at, sizeof(r.flagged_at));
    const auto f = r.features.as_vector();
    fnv_mix(h, f.data(), f.size() * sizeof(double));
  }
  return h;
}

std::uint64_t stream_digest(const std::vector<sybil::osn::Event>& events) {
  std::uint64_t h = kFnvOffset;
  for (const sybil::osn::Event& e : events) {
    const auto type = static_cast<std::uint8_t>(e.type);
    const auto time_bits = std::bit_cast<std::uint64_t>(e.time);
    fnv_mix(h, &type, sizeof(type));
    fnv_mix(h, &e.actor, sizeof(e.actor));
    fnv_mix(h, &e.subject, sizeof(e.subject));
    fnv_mix(h, &time_bits, sizeof(time_bits));
  }
  return h;
}

// ---- storage ---------------------------------------------------------------

IoCounts IoCounts::operator-(const IoCounts& o) const noexcept {
  IoCounts d;
  d.wal_bytes = wal_bytes - o.wal_bytes;
  d.checkpoint_bytes = checkpoint_bytes - o.checkpoint_bytes;
  d.other_bytes = other_bytes - o.other_bytes;
  d.wal_fsyncs = wal_fsyncs - o.wal_fsyncs;
  d.checkpoints = checkpoints - o.checkpoints;
  return d;
}

namespace {

class CountingFile final : public sybil::io::VfsFile {
 public:
  CountingFile(std::unique_ptr<sybil::io::VfsFile> inner, CountingVfs& vfs,
               CountingVfs::Kind kind)
      : inner_(std::move(inner)), vfs_(vfs), kind_(kind) {}

  std::size_t read(void* buf, std::size_t n) override {
    return inner_->read(buf, n);
  }
  void write(const void* buf, std::size_t n) override {
    inner_->write(buf, n);
    vfs_.add_bytes(kind_, n);
  }
  void fsync() override { vfs_.add_fsync(kind_); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<sybil::io::VfsFile> inner_;
  CountingVfs& vfs_;
  CountingVfs::Kind kind_;
};

}  // namespace

CountingVfs::Kind CountingVfs::classify(const std::string& path) noexcept {
  if (path.find("/wal/") != std::string::npos) return kWal;
  if (path.find("/ckpt/") != std::string::npos) return kCheckpoint;
  return kOther;
}

std::unique_ptr<sybil::io::VfsFile> CountingVfs::open(const std::string& path,
                                                      sybil::io::VfsMode mode) {
  return std::make_unique<CountingFile>(sybil::io::real_vfs().open(path, mode),
                                        *this, classify(path));
}

void CountingVfs::rename(const std::string& from, const std::string& to) {
  sybil::io::real_vfs().rename(from, to);
  if (classify(to) == kCheckpoint && to.ends_with(".sybs")) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CountingVfs::remove(const std::string& path) noexcept {
  return sybil::io::real_vfs().remove(path);
}

void CountingVfs::truncate(const std::string& path, std::uint64_t size) {
  sybil::io::real_vfs().truncate(path, size);
}

void CountingVfs::sync_parent_dir(const std::string& path) {
  add_fsync(classify(path));
}

IoCounts CountingVfs::counts() const noexcept {
  IoCounts c;
  c.wal_bytes = bytes_[kWal].load(std::memory_order_relaxed);
  c.checkpoint_bytes = bytes_[kCheckpoint].load(std::memory_order_relaxed);
  c.other_bytes = bytes_[kOther].load(std::memory_order_relaxed);
  c.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  c.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return c;
}

void settle_filesystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// ---- machine --------------------------------------------------------------

CpuRotator::CpuRotator(std::chrono::milliseconds slice) : tid_(::gettid()) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) return;
  thread_ = std::thread([this, slice] { run(slice); });
}

CpuRotator::~CpuRotator() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
  pin(cpus_);
}

void CpuRotator::pin(const std::vector<int>& cpus) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(tid_, sizeof(set), &set);
}

void CpuRotator::run(std::chrono::milliseconds slice) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t k = 0;; ++k) {
    pin({cpus_[k % cpus_.size()]});
    if (cv_.wait_for(lock, slice, [this] { return stop_; })) return;
  }
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2fc12fc1: return "zfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

std::string machine_fingerprint(const std::string& state_root) {
  std::string cpu = "unknown";
  std::istringstream info(read_file("/proc/cpuinfo"));
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"cpu\":\"" << json_escape(cpu)
      << "\",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"compiler\":\"" << json_escape(compiler) << "\",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"sybil_threads\":"
      << sybil::core::thread_count() << ",\"state_fs\":\""
      << filesystem_type(state_root) << "\"}";
  return out.str();
}

}  // namespace perfbench
