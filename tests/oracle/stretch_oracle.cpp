#include "oracle/stretch_oracle.hpp"

#include <algorithm>

namespace dtm::oracle {

StretchCheckingOracle::StretchCheckingOracle(
    std::shared_ptr<const LandmarkOracle> landmark,
    std::shared_ptr<const DistanceOracle> exact, double max_stretch)
    : landmark_(std::move(landmark)),
      exact_(std::move(exact)),
      max_stretch_(max_stretch) {
  DTM_REQUIRE(landmark_ != nullptr && exact_ != nullptr,
              "stretch check needs a landmark and an exact oracle");
  DTM_REQUIRE(max_stretch_ >= 1.0, "max_stretch " << max_stretch_ << " < 1");
  DTM_REQUIRE(exact_->num_nodes() == landmark_->num_nodes(),
              "oracles disagree on the node count");
  construction_sweep();
}

Weight StretchCheckingOracle::dist(NodeId u, NodeId v) const {
  const Weight d = landmark_->dist(u, v);
  check(u, v, d);
  return d;
}

void StretchCheckingOracle::check(NodeId u, NodeId v, Weight d) const {
  const Weight e = exact_->dist(u, v);
  DTM_CHECK(d >= e, "landmark dist(" << u << "," << v << ") = " << d
                                     << " below exact " << e);
  if (e == 0)
    DTM_CHECK(d == 0, "nonzero landmark dist " << d << " for coincident "
                                               << u << "," << v);
  const double stretch =
      e == 0 ? 1.0 : static_cast<double>(d) / static_cast<double>(e);
  DTM_CHECK(stretch <= max_stretch_ + 1e-9,
            "landmark stretch " << stretch << " for (" << u << "," << v
                                << ") exceeds bound " << max_stretch_);
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.dist_checks;
  stats_.max_stretch_seen = std::max(stats_.max_stretch_seen, stretch);
}

void StretchCheckingOracle::construction_sweep() {
  const LandmarkRouter& router = landmark_->router();
  const NodeId n = router.num_nodes();
  const auto check_pair = [&](NodeId u, NodeId v) {
    const Weight d = router.dist(u, v);
    check(u, v, d);
    const auto p = router.path(u, v);
    DTM_CHECK(p.front() == u && p.back() == v,
              "path(" << u << "," << v << ") endpoints " << p.front() << ","
                      << p.back());
    const Weight w = router.path_weight(p);
    DTM_CHECK(w <= d, "path(" << u << "," << v << ") realizes " << w
                              << " above reported dist " << d);
    DTM_CHECK(w >= exact_->dist(u, v), "path weight below exact distance");
    ++stats_.path_checks;
  };
  if (n <= 128) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v)
        check_pair(u, v);
    return;
  }
  // Deterministic pseudo-random pair sample (splitmix64 walk).
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto draw = [&x, n]() {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<NodeId>((z ^ (z >> 31)) % static_cast<std::uint64_t>(n));
  };
  for (int i = 0; i < 4096; ++i) {
    const NodeId u = draw();
    const NodeId v = draw();
    if (u != v) check_pair(u, v);
  }
}

void check_stretch(Network& net, std::shared_ptr<const DistanceOracle> exact,
                   double max_stretch) {
  auto landmark = std::dynamic_pointer_cast<const LandmarkOracle>(net.oracle);
  DTM_REQUIRE(landmark != nullptr,
              "check_stretch needs a landmark-routed network");
  net.oracle = std::make_shared<StretchCheckingOracle>(
      std::move(landmark), std::move(exact), max_stretch);
}

}  // namespace dtm::oracle
