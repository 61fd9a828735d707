// The paper's four behavioral detection features (Section 2.2) and their
// extraction from OSN state.
//
//  1. Invitation frequency — invites per hour, at a short (per active
//     hour) and a long (400-hour window) time scale (Fig 1).
//  2. Outgoing requests accepted — fraction of sent friend requests that
//     were confirmed (Fig 2).
//  3. Incoming requests accepted — fraction of received requests the
//     account accepted (Fig 3).
//  4. Clustering coefficient — over the account's first 50 friends in
//     chronological order (Fig 4).
#pragma once

#include <array>
#include <vector>

#include "graph/clustering.h"
#include "graph/csr.h"
#include "graph/neighbor_view.h"
#include "osn/network.h"

namespace sybil::core {

/// The clustering prefix: an account's first 50 friends (Section 2.2).
inline constexpr std::size_t kFirstFriends = 50;

struct SybilFeatures {
  double invite_rate_short = 0.0;  // invites per active hour
  double invite_rate_long = 0.0;   // invites per hour over the long window
  double outgoing_accept_ratio = 1.0;
  double incoming_accept_ratio = 1.0;
  double clustering_coefficient = 0.0;

  /// Feature vector used by the learned classifiers (4 features, as in
  /// the paper; the short-scale rate represents invitation frequency).
  std::array<double, 4> as_vector() const noexcept {
    return {invite_rate_short, outgoing_accept_ratio, incoming_accept_ratio,
            clustering_coefficient};
  }
  static constexpr std::size_t kFeatureCount = 4;
};

/// Extracts features for accounts of a Network. Builds one NeighborView
/// snapshot (chronological + sorted adjacency) at construction — the
/// setup cost every candidate of a sweep then amortizes; create a fresh
/// extractor after the graph changes.
class FeatureExtractor {
 public:
  /// `long_window_hours` is the paper's 400-hour horizon;
  /// `first_friends` the clustering prefix length.
  explicit FeatureExtractor(const osn::Network& net,
                            double long_window_hours = 400.0,
                            std::size_t first_friends = kFirstFriends);

  SybilFeatures extract(osn::NodeId account) const;

  /// Batch extraction: clustering goes through the batched first-k
  /// kernel, the remaining features are filled per subject over the
  /// fixed chunk partition (bit-identical to the sequential loop for
  /// any SYBIL_THREADS — each slot is written by exactly one chunk).
  std::vector<SybilFeatures> extract(
      const std::vector<osn::NodeId>& accounts) const;

  const graph::NeighborView& view() const noexcept { return view_; }
  const graph::CsrGraph& snapshot() const noexcept { return view_.csr(); }

 private:
  /// Ledger-derived features (everything but clustering).
  void fill_rates(osn::NodeId account, SybilFeatures& f) const;

  const osn::Network& net_;
  graph::NeighborView view_;
  double long_window_;
  std::size_t first_friends_;
};

}  // namespace sybil::core
