#include "osn/checkpoint.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/metrics/instrument.h"
#include "io/container.h"
#include "io/graph_snapshot.h"

namespace sybil::osn {

// Friend of Network and GroundTruthSimulator: the one place private
// simulator state is serialized/restored.
struct CheckpointAccess {
  using Pending = Network::Pending;
  using PendingQueue = decltype(Network::pending_);

  // Standard trick for reaching std::priority_queue's protected
  // container: `c` is inherited from PendingQueue, so &QueueAccess::c
  // has type `std::vector<Pending> PendingQueue::*` and applies to the
  // queue directly. Saving the heap's exact array (rather than
  // re-pushing popped elements) keeps resumed pop order byte-identical
  // even for tied respond_at values.
  struct QueueAccess : PendingQueue {
    static const std::vector<Pending>& container(const PendingQueue& q) {
      return q.*&QueueAccess::c;
    }
    static std::vector<Pending>& container(PendingQueue& q) {
      return q.*&QueueAccess::c;
    }
  };

  static void save(const GroundTruthSimulator& sim, const std::string& path);
  static std::unique_ptr<GroundTruthSimulator> load(const std::string& path);
};

namespace {

using io::ByteReader;
using io::ByteWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

// Section ids (docs/FORMATS.md §Checkpoint).
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecConfig = 2;
constexpr std::uint32_t kSecRng = 3;
constexpr std::uint32_t kSecAccounts = 4;
constexpr std::uint32_t kSecLedgers = 5;
constexpr std::uint32_t kSecGraphDegrees = 6;
constexpr std::uint32_t kSecGraphNbrNode = 7;
constexpr std::uint32_t kSecGraphNbrTime = 8;
constexpr std::uint32_t kSecGraphNbrWeak = 9;
constexpr std::uint32_t kSecPending = 10;
constexpr std::uint32_t kSecRequested = 11;
constexpr std::uint32_t kSecEvents = 12;
constexpr std::uint32_t kSecNormalIds = 13;
constexpr std::uint32_t kSecSubjectNormals = 14;
constexpr std::uint32_t kSecSubjectSybils = 15;
constexpr std::uint32_t kSecBanAt = 16;
constexpr std::uint32_t kSecPopularity = 17;

struct Meta {
  std::uint64_t accounts;
  std::uint64_t pending;
  std::uint64_t requested;
  std::uint64_t events;
  std::uint64_t hours_done;
  std::uint64_t next_rebuild;
  std::uint8_t finished;
  std::uint8_t keep_log;
};

// One field list, two directions: Io is ByteWriter-backed (serialize)
// or ByteReader-backed (restore). Field order is the on-disk order —
// append new fields at the end and bump io::kFormatVersion.
template <typename Io>
void visit_config(GroundTruthConfig& c, Io&& io) {
  io(c.background_users);
  io(c.subject_normals);
  io(c.subject_sybils);
  io(c.sim_hours);
  io(c.seed);
  io(c.seed_graph.nodes);
  io(c.seed_graph.mean_links);
  io(c.seed_graph.triadic_closure);
  io(c.seed_graph.pa_beta);
  io(c.seed_graph.communities);
  io(c.seed_graph.community_affinity);
  io(c.normal.female_fraction);
  io(c.normal.online_prob);
  io(c.normal.session_invites_mu);
  io(c.normal.session_invites_sigma);
  io(c.normal.session_invites_cap);
  io(c.normal.fof_target_prob);
  io(c.normal.fof_accept_base);
  io(c.normal.fof_accept_openness);
  io(c.normal.stranger_scale);
  io(c.normal.aggressive_fraction);
  io(c.normal.aggressive_rate_mu);
  io(c.normal.aggressive_rate_cap);
  io(c.normal.aggressive_fof_prob);
  io(c.sybil.female_fraction);
  io(c.sybil.online_prob);
  io(c.sybil.invites_per_hour_mu);
  io(c.sybil.invites_per_hour_sigma);
  io(c.sybil.attractiveness_mu);
  io(c.sybil.attractiveness_jitter);
  io(c.sybil.target_bias);
  io(c.sybil.uniform_mix);
  io(c.sybil.request_budget_median);
  io(c.sybil.request_budget_sigma);
  io(c.sybil.stealth_fraction);
  io(c.sybil.stealth_rate_factor);
  io(c.sybil.stealth_fof_prob);
  io(c.sybil.stealth_incoming_accept);
  io(c.sybil.ban_after_min);
  io(c.sybil.ban_after_max);
  io(c.response_delay_mean);
  io(c.popularity_rebuild_hours);
}

struct WriteField {
  ByteWriter& w;
  template <typename T>
  void operator()(T& v) {
    w.write(v);
  }
};

struct ReadField {
  ByteReader& r;
  template <typename T>
  void operator()(T& v) {
    v = r.template read<T>();
  }
};

void write_account(ByteWriter& w, const Account& a) {
  w.write(static_cast<std::uint8_t>(a.kind));
  w.write(static_cast<std::uint8_t>(a.gender));
  w.write(static_cast<std::uint8_t>(a.stealthy ? 1 : 0));
  w.write(static_cast<std::uint8_t>(a.banned() ? 1 : 0));
  w.write(a.created_at);
  w.write(a.banned_at.value_or(0.0));
  w.write(a.attractiveness);
  w.write(a.openness);
  w.write(a.invite_rate);
  w.write(a.request_budget);
}

Account read_account(ByteReader& r) {
  Account a;
  const auto kind = r.read<std::uint8_t>();
  const auto gender = r.read<std::uint8_t>();
  const auto stealthy = r.read<std::uint8_t>();
  const auto banned = r.read<std::uint8_t>();
  if (kind > 1 || gender > 1 || stealthy > 1 || banned > 1) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "account enum/flag byte out of range");
  }
  a.kind = static_cast<AccountKind>(kind);
  a.gender = static_cast<Gender>(gender);
  a.stealthy = stealthy != 0;
  a.created_at = r.read<Time>();
  const Time banned_at = r.read<Time>();
  if (banned != 0) a.banned_at = banned_at;
  a.attractiveness = r.read<double>();
  a.openness = r.read<double>();
  a.invite_rate = r.read<double>();
  a.request_budget = r.read<std::uint32_t>();
  return a;
}

std::vector<std::uint32_t> read_id_section(const io::ContainerReader& reader,
                                           std::uint32_t id,
                                           std::uint64_t node_count) {
  const auto ids = reader.pod_section<std::uint32_t>(id);
  for (const std::uint32_t v : ids) {
    if (v >= node_count) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "node id out of range in section " +
                              std::to_string(id));
    }
  }
  return {ids.begin(), ids.end()};
}

}  // namespace

void CheckpointAccess::save(const GroundTruthSimulator& sim,
                            const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "osn.checkpoint.save");
  const Network& net = sim.net_;
  io::ContainerWriter writer(io::PayloadKind::kSimulatorCheckpoint);

  {
    ByteWriter w;
    w.write<std::uint64_t>(net.account_count());
    w.write<std::uint64_t>(QueueAccess::container(net.pending_).size());
    w.write<std::uint64_t>(net.requested_.size());
    w.write<std::uint64_t>(net.log_.size());
    w.write<std::uint64_t>(sim.hours_done_);
    w.write<std::uint64_t>(sim.next_rebuild_);
    w.write<std::uint8_t>(sim.finished_ ? 1 : 0);
    w.write<std::uint8_t>(net.keep_log_ ? 1 : 0);
    writer.add_section(kSecMeta, std::move(w).take());
  }
  {
    ByteWriter w;
    GroundTruthConfig config = sim.config_;
    visit_config(config, WriteField{w});
    writer.add_section(kSecConfig, std::move(w).take());
  }
  {
    const std::array<std::uint64_t, 4> state = sim.rng_.state();
    writer.add_pod_section<std::uint64_t>(kSecRng, state);
  }
  {
    ByteWriter w;
    for (NodeId id = 0; id < net.account_count(); ++id) {
      write_account(w, net.account(id));
    }
    writer.add_section(kSecAccounts, std::move(w).take());
  }
  {
    ByteWriter w;
    for (NodeId id = 0; id < net.account_count(); ++id) {
      write_ledger(w, net.ledger(id));
    }
    writer.add_section(kSecLedgers, std::move(w).take());
  }
  {
    const graph::TimestampedGraph& g = net.graph();
    std::vector<std::uint32_t> degrees(g.node_count());
    std::vector<NodeId> nodes;
    std::vector<double> times;
    std::vector<std::uint8_t> weak;
    nodes.reserve(2 * g.edge_count());
    times.reserve(2 * g.edge_count());
    weak.reserve(2 * g.edge_count());
    for (NodeId u = 0; u < g.node_count(); ++u) {
      degrees[u] = g.degree(u);
      for (const graph::Neighbor& nb : g.neighbors(u)) {
        nodes.push_back(nb.node);
        times.push_back(nb.created_at);
        weak.push_back(nb.weak ? 1 : 0);
      }
    }
    writer.add_pod_section<std::uint32_t>(kSecGraphDegrees, degrees);
    writer.add_pod_section<NodeId>(kSecGraphNbrNode, nodes);
    writer.add_pod_section<double>(kSecGraphNbrTime, times);
    writer.add_pod_section<std::uint8_t>(kSecGraphNbrWeak, weak);
  }
  {
    ByteWriter w;
    for (const Pending& p : QueueAccess::container(net.pending_)) {
      w.write(p.respond_at);
      w.write(p.from);
      w.write(p.to);
      w.write(p.tag);
    }
    writer.add_section(kSecPending, std::move(w).take());
  }
  {
    // Sorted so identical simulator state always produces identical
    // checkpoint bytes, independent of hash-set iteration order.
    std::vector<std::uint64_t> keys(net.requested_.begin(),
                                    net.requested_.end());
    std::sort(keys.begin(), keys.end());
    writer.add_pod_section<std::uint64_t>(kSecRequested, keys);
  }
  {
    ByteWriter w;
    for (const Event& e : net.log().events()) {
      w.write(static_cast<std::uint8_t>(e.type));
      w.write(e.actor);
      w.write(e.subject);
      w.write(e.time);
    }
    writer.add_section(kSecEvents, std::move(w).take());
  }
  writer.add_pod_section<NodeId>(kSecNormalIds, sim.normal_ids_);
  writer.add_pod_section<NodeId>(kSecSubjectNormals, sim.subject_normals_);
  writer.add_pod_section<NodeId>(kSecSubjectSybils, sim.subject_sybils_);
  writer.add_pod_section<double>(kSecBanAt, sim.sybil_ban_at_);
  writer.add_pod_section<double>(kSecPopularity, sim.popularity_weights_);

  writer.commit(path);
  SYBIL_METRIC_COUNT("osn.checkpoint.saved", 1);
}

std::unique_ptr<GroundTruthSimulator> CheckpointAccess::load(
    const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "osn.checkpoint.load");
  const io::ContainerReader reader(path,
                                   io::PayloadKind::kSimulatorCheckpoint);

  Meta meta;
  {
    ByteReader r(reader.section(kSecMeta));
    meta.accounts = r.read<std::uint64_t>();
    meta.pending = r.read<std::uint64_t>();
    meta.requested = r.read<std::uint64_t>();
    meta.events = r.read<std::uint64_t>();
    meta.hours_done = r.read<std::uint64_t>();
    meta.next_rebuild = r.read<std::uint64_t>();
    meta.finished = r.read<std::uint8_t>();
    meta.keep_log = r.read<std::uint8_t>();
    if (!r.exhausted() || meta.finished > 1 || meta.keep_log > 1) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "checkpoint meta malformed");
    }
  }

  GroundTruthConfig config;
  {
    ByteReader r(reader.section(kSecConfig));
    visit_config(config, ReadField{r});
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "checkpoint config section has trailing bytes");
    }
  }

  auto sim = std::unique_ptr<GroundTruthSimulator>(new GroundTruthSimulator(
      config, GroundTruthSimulator::RestoreTag{}));

  {
    const auto state = reader.pod_section<std::uint64_t>(kSecRng);
    if (state.size() != 4) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "rng section must hold 4 u64 words");
    }
    sim->rng_ = stats::Rng::from_state(
        {state[0], state[1], state[2], state[3]});
  }

  Network& net = sim->net_;
  net.keep_log_ = meta.keep_log != 0;
  {
    ByteReader r(reader.section(kSecAccounts));
    net.accounts_.reserve(meta.accounts);
    for (std::uint64_t i = 0; i < meta.accounts; ++i) {
      net.accounts_.push_back(read_account(r));
    }
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "accounts section has trailing bytes");
    }
  }
  {
    ByteReader r(reader.section(kSecLedgers));
    net.ledgers_.reserve(meta.accounts);
    for (std::uint64_t i = 0; i < meta.accounts; ++i) {
      net.ledgers_.push_back(read_ledger(r));
    }
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "ledgers section has trailing bytes");
    }
  }
  {
    const auto degrees = reader.pod_section<std::uint32_t>(kSecGraphDegrees);
    const auto nodes = reader.pod_section<NodeId>(kSecGraphNbrNode);
    const auto times = reader.pod_section<double>(kSecGraphNbrTime);
    const auto weak = reader.pod_section<std::uint8_t>(kSecGraphNbrWeak);
    if (degrees.size() != meta.accounts || nodes.size() != times.size() ||
        nodes.size() != weak.size()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "graph sections inconsistent");
    }
    std::uint64_t sum = 0;
    for (const std::uint32_t d : degrees) sum += d;
    if (sum != nodes.size() || sum % 2 != 0) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "degree sum does not match neighbor arrays");
    }
    std::vector<std::vector<graph::Neighbor>> adj(meta.accounts);
    std::size_t at = 0;
    for (std::uint64_t u = 0; u < meta.accounts; ++u) {
      adj[u].reserve(degrees[u]);
      for (std::uint32_t k = 0; k < degrees[u]; ++k, ++at) {
        adj[u].push_back({nodes[at], times[at], weak[at] != 0});
      }
    }
    net.graph_ = graph::TimestampedGraph::from_adjacency(std::move(adj));
    io::require_simple_graph(net.graph_);
  }
  {
    ByteReader r(reader.section(kSecPending));
    std::vector<Pending> heap;
    heap.reserve(meta.pending);
    for (std::uint64_t i = 0; i < meta.pending; ++i) {
      Pending p;
      p.respond_at = r.read<Time>();
      p.from = r.read<NodeId>();
      p.to = r.read<NodeId>();
      p.tag = r.read<std::uint8_t>();
      if (p.from >= meta.accounts || p.to >= meta.accounts) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "pending request endpoint out of range");
      }
      heap.push_back(p);
    }
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "pending section has trailing bytes");
    }
    if (!std::is_heap(heap.begin(), heap.end(), std::greater<>())) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "pending section is not a valid min-heap");
    }
    // Install the array verbatim: the resumed queue pops in exactly the
    // order the interrupted one would have.
    QueueAccess::container(net.pending_) = std::move(heap);
  }
  {
    const auto keys = reader.pod_section<std::uint64_t>(kSecRequested);
    if (keys.size() != meta.requested) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "requested section count mismatch");
    }
    net.requested_.reserve(keys.size());
    net.requested_.insert(keys.begin(), keys.end());
    if (net.requested_.size() != keys.size()) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "requested section holds duplicate keys");
    }
  }
  {
    ByteReader r(reader.section(kSecEvents));
    for (std::uint64_t i = 0; i < meta.events; ++i) {
      const auto type = r.read<std::uint8_t>();
      if (type > static_cast<std::uint8_t>(EventType::kFriendshipSeeded)) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "event type byte out of range");
      }
      Event e;
      e.type = static_cast<EventType>(type);
      e.actor = r.read<NodeId>();
      e.subject = r.read<NodeId>();
      e.time = r.read<Time>();
      net.log_.append(e);
    }
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "events section has trailing bytes");
    }
  }

  sim->normal_ids_ = read_id_section(reader, kSecNormalIds, meta.accounts);
  sim->subject_normals_ =
      read_id_section(reader, kSecSubjectNormals, meta.accounts);
  sim->subject_sybils_ =
      read_id_section(reader, kSecSubjectSybils, meta.accounts);
  {
    const auto ban_at = reader.pod_section<double>(kSecBanAt);
    if (ban_at.size() != sim->subject_sybils_.size()) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "ban-time section not parallel to subject sybils");
    }
    sim->sybil_ban_at_.assign(ban_at.begin(), ban_at.end());
  }
  {
    const auto weights = reader.pod_section<double>(kSecPopularity);
    if (weights.size() != meta.accounts && !weights.empty()) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "popularity section not parallel to accounts");
    }
    sim->popularity_weights_.assign(weights.begin(), weights.end());
    if (!sim->popularity_weights_.empty()) {
      sim->popularity_ =
          std::make_unique<stats::AliasSampler>(sim->popularity_weights_);
    }
  }

  sim->hours_done_ = meta.hours_done;
  sim->next_rebuild_ = meta.next_rebuild;
  sim->finished_ = meta.finished != 0;
  SYBIL_METRIC_COUNT("osn.checkpoint.loaded", 1);
  return sim;
}

void save_checkpoint(const GroundTruthSimulator& sim,
                     const std::string& path) {
  CheckpointAccess::save(sim, path);
}

std::unique_ptr<GroundTruthSimulator> load_checkpoint(
    const std::string& path) {
  return CheckpointAccess::load(path);
}

}  // namespace sybil::osn
