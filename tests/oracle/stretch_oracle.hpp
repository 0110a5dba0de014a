// Stretch-checking distance oracle: a DistanceOracle decorator over a
// LandmarkOracle that proves, against an exact oracle, what the landmark
// router promises — kept test-side; the shipped routing has only the
// exact and landmark modes.
//
// Construction sweeps every pair on graphs of at most 128 nodes (a
// deterministic 4096-pair sample above that): each realized path must be a
// real walk between the endpoints (path_weight asserts adjacency), cost no
// more than the reported distance and no less than the exact one. Every
// dist() query then re-checks exact <= landmark <= max_stretch * exact.
// Answers are the landmark oracle's, so an engine driven through this
// decorator runs exactly as with the bare LandmarkOracle.
#pragma once

#include <memory>
#include <mutex>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace dtm::oracle {

class StretchCheckingOracle final : public DistanceOracle {
 public:
  StretchCheckingOracle(std::shared_ptr<const LandmarkOracle> landmark,
                        std::shared_ptr<const DistanceOracle> exact,
                        double max_stretch);

  /// The landmark distance, checked against the exact one.
  [[nodiscard]] Weight dist(NodeId u, NodeId v) const override;
  [[nodiscard]] Weight diameter() const override {
    return landmark_->diameter();
  }
  [[nodiscard]] NodeId num_nodes() const override {
    return landmark_->num_nodes();
  }

  struct Stats {
    std::int64_t dist_checks = 0;   ///< per-query stretch checks
    std::int64_t path_checks = 0;   ///< construction-sweep path walks
    double max_stretch_seen = 1.0;  ///< over all checked pairs
  };
  [[nodiscard]] Stats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  void check(NodeId u, NodeId v, Weight d) const;
  void construction_sweep();

  std::shared_ptr<const LandmarkOracle> landmark_;
  std::shared_ptr<const DistanceOracle> exact_;
  double max_stretch_;
  mutable std::mutex mu_;  ///< dist() may run on engine pool workers
  mutable Stats stats_;
};

/// Replaces `net.oracle` (a LandmarkOracle, as make_network builds for
/// routing=landmark) with a StretchCheckingOracle over it and `exact`.
void check_stretch(Network& net, std::shared_ptr<const DistanceOracle> exact,
                   double max_stretch);

}  // namespace dtm::oracle
