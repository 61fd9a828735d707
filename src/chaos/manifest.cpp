#include "chaos/manifest.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sybil::chaos {

namespace {

constexpr const char* kMagic = "sybil-scenario v1";

std::string fmt_double(double v) {
  char buf[40];
  // Shortest round-trip-safe decimal: %.17g always reparses to the
  // same double, and integral values print without a trailing ".0"
  // noise (e.g. "96" not "96.000000000000000").
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) return buf;
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

const char* disk_kind_name(DiskFaultSpec::Kind k) {
  switch (k) {
    case DiskFaultSpec::Kind::kNoSpace:
      return "enospc";
    case DiskFaultSpec::Kind::kIoError:
      return "eio";
    case DiskFaultSpec::Kind::kPowerLoss:
      return "powerloss";
  }
  return "enospc";
}

const char* fsync_name(service::WalFsync f) {
  switch (f) {
    case service::WalFsync::kEveryAppend:
      return "always";
    case service::WalFsync::kNever:
      return "never";
  }
  return "never";
}

struct Line {
  std::size_t number = 0;
  std::string key;
  std::vector<std::string> values;  // whitespace-split value tokens
};

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("scenario manifest line " +
                              std::to_string(line) + ": " + what);
}

double parse_double(const Line& l, std::size_t idx = 0) {
  if (idx >= l.values.size()) fail(l.number, l.key + ": missing value");
  const std::string& s = l.values[idx];
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    fail(l.number, l.key + ": not a number: '" + s + "'");
  }
  return v;
}

/// Strict unsigned parse of the line's value into `T`: digits only, and
/// a value above T's maximum fails instead of wrapping.
template <typename T = std::uint64_t>
T parse_uint(const Line& l) {
  const std::string& s = l.values[0];
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    fail(l.number, l.key + ": not a non-negative integer: '" + s + "'");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  std::uint64_t v = 0;
  if (std::from_chars(s.data(), s.data() + s.size(), v).ec != std::errc() ||
      v > kMax) {
    fail(l.number, l.key + ": " + s + " is out of range [0, " +
                       std::to_string(kMax) + "]");
  }
  return static_cast<T>(v);
}

bool parse_bool(const Line& l) {
  if (l.values.size() != 1) fail(l.number, l.key + ": expected true|false");
  if (l.values[0] == "true") return true;
  if (l.values[0] == "false") return false;
  fail(l.number, l.key + ": expected true|false, got '" + l.values[0] + "'");
}

service::TrafficWindow parse_window(const Line& l) {
  if (l.values.size() != 3) {
    fail(l.number, l.key + ": expected <start_hour> <span_hours> <intensity>");
  }
  service::TrafficWindow w;
  w.start_hour = parse_double(l, 0);
  w.span_hours = parse_double(l, 1);
  w.intensity = parse_double(l, 2);
  return w;
}

}  // namespace

core::DetectorOptions ScenarioManifest::detector_options() const {
  core::DetectorOptions d;
  d.rule.invite_rate_min = invite_rate_min;
  d.rule.outgoing_accept_max = outgoing_accept_max;
  d.rule.min_requests = min_requests;
  d.overload = overload;
  return d;
}

void ScenarioManifest::validate() const {
  if (name.empty() || name.find_first_of("\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ScenarioManifest::name must be non-empty and single-line");
  }
  workload.validate();
  if (shards == 0 || shards > 4096) {
    throw std::invalid_argument(
        "ScenarioManifest::shards must be in [1, 4096]");
  }
  if (wal_segment_records == 0) {
    throw std::invalid_argument(
        "ScenarioManifest::wal_segment_records must be >= 1");
  }
  if (checkpoint_retain == 0) {
    throw std::invalid_argument(
        "ScenarioManifest::checkpoint_retain must be >= 1");
  }
  detector_options().validate();
  if (phases.empty()) {
    throw std::invalid_argument(
        "ScenarioManifest: at least one [phase] is required");
  }
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& p = phases[i];
    if (p.until_event <= prev) {
      throw std::invalid_argument(
          "ScenarioManifest: phase until_event values must be strictly "
          "increasing (phase '" + p.name + "')");
    }
    if (p.pump_interval == 0) {
      throw std::invalid_argument(
          "ScenarioManifest: phase pump_interval must be >= 1 (phase '" +
          p.name + "')");
    }
    prev = p.until_event;
  }
  if (prev != workload.events) {
    throw std::invalid_argument(
        "ScenarioManifest: the last phase must end exactly at "
        "workload.events (" + std::to_string(workload.events) + "), got " +
        std::to_string(prev));
  }
  faults::validate_fault_windows(fault_windows, workload.events);
  for (const faults::FaultWindow& w : fault_windows) {
    if (w.rates.reorder > 0.0) {
      throw std::invalid_argument(
          "ScenarioManifest: fault windows cannot reorder — an "
          "out-of-order offer below an advanced redelivery frontier "
          "would be suppressed as a duplicate (silent loss); reorder "
          "chaos lives at the detector layer (tests/faults)");
    }
    if (w.rates.banned_party > 0.0) {
      throw std::invalid_argument(
          "ScenarioManifest: fault windows cannot inject banned-party "
          "events — their synthesized seqs (FaultInjector::kSynthSeqBase)"
          " are explicit to a ShardRouter and would poison the frontier "
          "math");
    }
  }
  std::uint64_t prev_free = 0;  // first event where no event-kill is live
  for (std::size_t i = 0; i < kills.size(); ++i) {
    const KillSpec& k = kills[i];
    if (k.shard >= shards) {
      throw std::invalid_argument(
          "ScenarioManifest: kill[" + std::to_string(i) +
          "].shard out of range");
    }
    if (k.down_for == 0) {
      throw std::invalid_argument(
          "ScenarioManifest: kill[" + std::to_string(i) +
          "].down_for must be >= 1");
    }
    if (!k.use_boundary) {
      if (k.at_event < prev_free) {
        throw std::invalid_argument(
            "ScenarioManifest: kills must be sorted and non-overlapping "
            "(kill[" + std::to_string(i) + "] arms while the previous "
            "victim is still down)");
      }
      if (k.at_event + k.down_for > workload.events) {
        throw std::invalid_argument(
            "ScenarioManifest: kill[" + std::to_string(i) +
            "] must recover within the stream (at_event + down_for <= "
            "events)");
      }
      prev_free = k.at_event + k.down_for;
    }
    // at_boundary kills cannot be range-checked statically (the
    // crossing count is a property of the run); the orchestrator
    // defers an arm while any shard is down or catching up, and
    // reports kills whose boundary never arrives as missed.
  }
  for (std::size_t i = 0; i < disk_faults.size(); ++i) {
    const DiskFaultSpec& d = disk_faults[i];
    if (d.shard >= shards) {
      throw std::invalid_argument(
          "ScenarioManifest: disk[" + std::to_string(i) +
          "].shard out of range");
    }
    if (d.from_event >= d.to_event || d.to_event > workload.events) {
      throw std::invalid_argument(
          "ScenarioManifest: disk[" + std::to_string(i) +
          "] window must satisfy from_event < to_event <= events");
    }
  }
  // One disturbance at a time: every event-triggered kill downtime and
  // every disk-fault window must form a single non-overlapping chain —
  // the orchestrator's recovery state machine handles one victim, and
  // overlapping disturbances would make the re-drive schedule ambiguous.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const KillSpec& k : kills) {
    if (!k.use_boundary) {
      spans.emplace_back(k.at_event, k.at_event + k.down_for);
    }
  }
  for (const DiskFaultSpec& d : disk_faults) {
    spans.emplace_back(d.from_event, d.to_event);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) {
      throw std::invalid_argument(
          "ScenarioManifest: kill downtimes and disk-fault windows must "
          "not overlap (one disturbance at a time)");
    }
  }
}

bool ScenarioManifest::identity_expected() const {
  for (const faults::FaultWindow& w : fault_windows) {
    if (w.rates.drop > 0.0 || w.rates.regress > 0.0 ||
        w.rates.malform > 0.0 || w.rates.reorder > 0.0 ||
        w.rates.banned_party > 0.0) {
      return false;
    }
  }
  return true;
}

ScenarioManifest ScenarioManifest::undisturbed() const {
  ScenarioManifest m = *this;
  m.fault_windows.clear();
  m.kills.clear();
  m.disk_faults.clear();
  return m;
}

std::string ScenarioManifest::serialize() const {
  std::string out;
  out += kMagic;
  out += "\nname = " + name + "\n";
  out += "\n[workload]\n";
  const service::WorkloadOptions& w = workload;
  out += "accounts = " + std::to_string(w.accounts) + "\n";
  out += "events = " + std::to_string(w.events) + "\n";
  out += "hours = " + fmt_double(w.hours) + "\n";
  out += "seed = " + std::to_string(w.seed) + "\n";
  out += "burst_senders = " + std::to_string(w.burst_senders) + "\n";
  out += "burst_fraction = " + fmt_double(w.burst_fraction) + "\n";
  out += "accept_fraction = " + fmt_double(w.accept_fraction) + "\n";
  out += "reject_fraction = " + fmt_double(w.reject_fraction) + "\n";
  out += "seed_friend_fraction = " + fmt_double(w.seed_friend_fraction) + "\n";
  out += "created_fraction = " + fmt_double(w.created_fraction) + "\n";
  out += "ban_fraction = " + fmt_double(w.ban_fraction) + "\n";
  out += "malformed_fraction = " + fmt_double(w.malformed_fraction) + "\n";
  out += "diurnal_amplitude = " + fmt_double(w.diurnal_amplitude) + "\n";
  out += "diurnal_period_hours = " + fmt_double(w.diurnal_period_hours) + "\n";
  for (const service::TrafficWindow& fc : w.flash_crowds) {
    out += "flash_crowd = " + fmt_double(fc.start_hour) + " " +
           fmt_double(fc.span_hours) + " " + fmt_double(fc.intensity) + "\n";
  }
  for (const service::TrafficWindow& rs : w.registration_storms) {
    out += "registration_storm = " + fmt_double(rs.start_hour) + " " +
           fmt_double(rs.span_hours) + " " + fmt_double(rs.intensity) + "\n";
  }
  out += "\n[service]\n";
  out += "shards = " + std::to_string(shards) + "\n";
  out += std::string("fsync = ") + fsync_name(fsync) + "\n";
  out += "wal_segment_records = " + std::to_string(wal_segment_records) + "\n";
  out += "checkpoint_retain = " + std::to_string(checkpoint_retain) + "\n";
  out += "queue_capacity = " + std::to_string(overload.queue_capacity) + "\n";
  out += "shed_watermark = " + std::to_string(overload.shed_watermark) + "\n";
  out += "sweep_only_watermark = " +
         std::to_string(overload.sweep_only_watermark) + "\n";
  out += "resume_watermark = " + std::to_string(overload.resume_watermark) +
         "\n";
  out += "invite_rate_min = " + fmt_double(invite_rate_min) + "\n";
  out += "outgoing_accept_max = " + fmt_double(outgoing_accept_max) + "\n";
  out += "min_requests = " + std::to_string(min_requests) + "\n";
  for (const PhaseSpec& p : phases) {
    out += "\n[phase]\n";
    out += "name = " + p.name + "\n";
    out += "until_event = " + std::to_string(p.until_event) + "\n";
    out += "pump_interval = " + std::to_string(p.pump_interval) + "\n";
    out += std::string("sweep = ") + (p.sweep ? "true" : "false") + "\n";
  }
  for (const faults::FaultWindow& fw : fault_windows) {
    out += "\n[faults]\n";
    out += "from_event = " + std::to_string(fw.from_event) + "\n";
    out += "to_event = " + std::to_string(fw.to_event) + "\n";
    out += "seed = " + std::to_string(fw.rates.seed) + "\n";
    out += "drop = " + fmt_double(fw.rates.drop) + "\n";
    out += "duplicate = " + fmt_double(fw.rates.duplicate) + "\n";
    out += "max_skew_hours = " + fmt_double(fw.rates.max_skew_hours) + "\n";
    out += "regress = " + fmt_double(fw.rates.regress) + "\n";
    out += "regress_hours = " + fmt_double(fw.rates.regress_hours) + "\n";
    out += "malform = " + fmt_double(fw.rates.malform) + "\n";
  }
  for (const KillSpec& k : kills) {
    out += "\n[kill]\n";
    out += "shard = " + std::to_string(k.shard) + "\n";
    if (k.use_boundary) {
      out += "at_boundary = " + std::to_string(k.at_boundary) + "\n";
    } else {
      out += "at_event = " + std::to_string(k.at_event) + "\n";
    }
    out += "down_for = " + std::to_string(k.down_for) + "\n";
  }
  for (const DiskFaultSpec& d : disk_faults) {
    out += "\n[disk]\n";
    out += "shard = " + std::to_string(d.shard) + "\n";
    out += std::string("kind = ") + disk_kind_name(d.kind) + "\n";
    out += "from_event = " + std::to_string(d.from_event) + "\n";
    out += "to_event = " + std::to_string(d.to_event) + "\n";
    out += "seed = " + std::to_string(d.seed) + "\n";
  }
  return out;
}

ScenarioManifest parse_manifest(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  bool magic_seen = false;
  enum class Section {
    kNone, kWorkload, kService, kPhase, kFaults, kKill, kDisk
  };
  Section section = Section::kNone;
  ScenarioManifest m;
  m.phases.clear();

  const auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos) return std::string();
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
  };

  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (!magic_seen) {
      if (line != kMagic) {
        fail(lineno, std::string("expected header '") + kMagic + "'");
      }
      magic_seen = true;
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') fail(lineno, "unterminated section header");
      const std::string s = line.substr(1, line.size() - 2);
      if (s == "workload") {
        section = Section::kWorkload;
      } else if (s == "service") {
        section = Section::kService;
      } else if (s == "phase") {
        section = Section::kPhase;
        m.phases.emplace_back();
      } else if (s == "faults") {
        section = Section::kFaults;
        m.fault_windows.emplace_back();
      } else if (s == "kill") {
        section = Section::kKill;
        m.kills.emplace_back();
      } else if (s == "disk") {
        section = Section::kDisk;
        m.disk_faults.emplace_back();
      } else {
        fail(lineno, "unknown section [" + s + "]");
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(lineno, "expected 'key = value'");
    Line l;
    l.number = lineno;
    l.key = trim(line.substr(0, eq));
    std::istringstream vs(line.substr(eq + 1));
    std::string tok;
    while (vs >> tok) l.values.push_back(tok);
    if (l.key.empty()) fail(lineno, "empty key");
    if (l.values.empty()) fail(lineno, l.key + ": missing value");

    switch (section) {
      case Section::kNone:
        if (l.key == "name") {
          m.name = l.values[0];
          for (std::size_t i = 1; i < l.values.size(); ++i) {
            m.name += " " + l.values[i];
          }
        } else {
          fail(lineno, "key '" + l.key + "' outside any section");
        }
        break;
      case Section::kWorkload: {
        service::WorkloadOptions& w = m.workload;
        if (l.key == "accounts") {
          w.accounts = parse_uint<std::uint32_t>(l);
        } else if (l.key == "events") {
          w.events = parse_uint(l);
        } else if (l.key == "hours") {
          w.hours = parse_double(l);
        } else if (l.key == "seed") {
          w.seed = parse_uint(l);
        } else if (l.key == "burst_senders") {
          w.burst_senders = parse_uint<std::uint32_t>(l);
        } else if (l.key == "burst_fraction") {
          w.burst_fraction = parse_double(l);
        } else if (l.key == "accept_fraction") {
          w.accept_fraction = parse_double(l);
        } else if (l.key == "reject_fraction") {
          w.reject_fraction = parse_double(l);
        } else if (l.key == "seed_friend_fraction") {
          w.seed_friend_fraction = parse_double(l);
        } else if (l.key == "created_fraction") {
          w.created_fraction = parse_double(l);
        } else if (l.key == "ban_fraction") {
          w.ban_fraction = parse_double(l);
        } else if (l.key == "malformed_fraction") {
          w.malformed_fraction = parse_double(l);
        } else if (l.key == "diurnal_amplitude") {
          w.diurnal_amplitude = parse_double(l);
        } else if (l.key == "diurnal_period_hours") {
          w.diurnal_period_hours = parse_double(l);
        } else if (l.key == "flash_crowd") {
          w.flash_crowds.push_back(parse_window(l));
        } else if (l.key == "registration_storm") {
          w.registration_storms.push_back(parse_window(l));
        } else {
          fail(lineno, "unknown [workload] key '" + l.key + "'");
        }
        break;
      }
      case Section::kService:
        if (l.key == "shards") {
          m.shards = parse_uint<std::uint32_t>(l);
        } else if (l.key == "fsync") {
          const std::string& v = l.values[0];
          if (v == "always") {
            m.fsync = service::WalFsync::kEveryAppend;
          } else if (v == "never") {
            m.fsync = service::WalFsync::kNever;
          } else {
            fail(lineno, "fsync: expected always|never");
          }
        } else if (l.key == "wal_segment_records") {
          m.wal_segment_records = parse_uint(l);
        } else if (l.key == "checkpoint_retain") {
          m.checkpoint_retain = parse_uint<std::size_t>(l);
        } else if (l.key == "queue_capacity") {
          m.overload.queue_capacity = parse_uint<std::size_t>(l);
        } else if (l.key == "shed_watermark") {
          m.overload.shed_watermark = parse_uint<std::size_t>(l);
        } else if (l.key == "sweep_only_watermark") {
          m.overload.sweep_only_watermark = parse_uint<std::size_t>(l);
        } else if (l.key == "resume_watermark") {
          m.overload.resume_watermark = parse_uint<std::size_t>(l);
        } else if (l.key == "invite_rate_min") {
          m.invite_rate_min = parse_double(l);
        } else if (l.key == "outgoing_accept_max") {
          m.outgoing_accept_max = parse_double(l);
        } else if (l.key == "min_requests") {
          m.min_requests = parse_uint<std::uint32_t>(l);
        } else {
          fail(lineno, "unknown [service] key '" + l.key + "'");
        }
        break;
      case Section::kPhase: {
        PhaseSpec& p = m.phases.back();
        if (l.key == "name") {
          p.name = l.values[0];
        } else if (l.key == "until_event") {
          p.until_event = parse_uint(l);
        } else if (l.key == "pump_interval") {
          p.pump_interval = parse_uint(l);
        } else if (l.key == "sweep") {
          p.sweep = parse_bool(l);
        } else {
          fail(lineno, "unknown [phase] key '" + l.key + "'");
        }
        break;
      }
      case Section::kFaults: {
        faults::FaultWindow& fw = m.fault_windows.back();
        if (l.key == "from_event") {
          fw.from_event = parse_uint(l);
        } else if (l.key == "to_event") {
          fw.to_event = parse_uint(l);
        } else if (l.key == "seed") {
          fw.rates.seed = parse_uint(l);
        } else if (l.key == "drop") {
          fw.rates.drop = parse_double(l);
        } else if (l.key == "duplicate") {
          fw.rates.duplicate = parse_double(l);
        } else if (l.key == "max_skew_hours") {
          fw.rates.max_skew_hours = parse_double(l);
        } else if (l.key == "regress") {
          fw.rates.regress = parse_double(l);
        } else if (l.key == "regress_hours") {
          fw.rates.regress_hours = parse_double(l);
        } else if (l.key == "malform") {
          fw.rates.malform = parse_double(l);
        } else if (l.key == "reorder") {
          fw.rates.reorder = parse_double(l);  // validate() rejects > 0
        } else if (l.key == "banned_party") {
          fw.rates.banned_party = parse_double(l);  // validate() rejects
        } else {
          fail(lineno, "unknown [faults] key '" + l.key + "'");
        }
        break;
      }
      case Section::kKill: {
        KillSpec& k = m.kills.back();
        if (l.key == "shard") {
          k.shard = parse_uint<std::uint32_t>(l);
        } else if (l.key == "at_event") {
          k.at_event = parse_uint(l);
          k.use_boundary = false;
        } else if (l.key == "at_boundary") {
          k.at_boundary = parse_uint(l);
          k.use_boundary = true;
        } else if (l.key == "down_for") {
          k.down_for = parse_uint(l);
        } else {
          fail(lineno, "unknown [kill] key '" + l.key + "'");
        }
        break;
      }
      case Section::kDisk: {
        DiskFaultSpec& d = m.disk_faults.back();
        if (l.key == "shard") {
          d.shard = parse_uint<std::uint32_t>(l);
        } else if (l.key == "kind") {
          const std::string& v = l.values[0];
          if (v == "enospc") {
            d.kind = DiskFaultSpec::Kind::kNoSpace;
          } else if (v == "eio") {
            d.kind = DiskFaultSpec::Kind::kIoError;
          } else if (v == "powerloss") {
            d.kind = DiskFaultSpec::Kind::kPowerLoss;
          } else {
            fail(lineno, "kind: expected enospc|eio|powerloss");
          }
        } else if (l.key == "from_event") {
          d.from_event = parse_uint(l);
        } else if (l.key == "to_event") {
          d.to_event = parse_uint(l);
        } else if (l.key == "seed") {
          d.seed = parse_uint(l);
        } else {
          fail(lineno, "unknown [disk] key '" + l.key + "'");
        }
        break;
      }
    }
  }
  if (!magic_seen) {
    throw std::invalid_argument(
        std::string("scenario manifest: missing header '") + kMagic + "'");
  }
  m.validate();
  return m;
}

ScenarioManifest load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read scenario manifest: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str());
}

}  // namespace sybil::chaos
