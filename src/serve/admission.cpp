#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dtm {

void AdmissionOptions::validate() const {
  DTM_REQUIRE(rate >= 0.0, "admission rate " << rate);
  DTM_REQUIRE(burst >= 0.0, "admission burst " << burst);
  DTM_REQUIRE(max_inflight >= 0, "admission max_inflight " << max_inflight);
  DTM_REQUIRE(queue_cap >= 1, "admission queue_cap " << queue_cap);
}

Json AdmissionStats::to_json() const {
  return Json::Object{
      {"offered", offered}, {"admitted", admitted}, {"shed", shed},
      {"shed_tokens", shed_tokens}, {"shed_inflight", shed_inflight},
      {"shed_queue_full", shed_queue_full}, {"queued", queued},
      {"max_queue_depth", max_queue_depth},
      {"max_inflight_seen", max_inflight_seen},
      {"max_queue_wait", max_queue_wait}};
}

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(opts) {
  opts_.validate();
  if (opts_.rate > 0.0) opts_.burst = std::max(opts_.burst, 1.0);
  tokens_ = opts_.burst;  // start full: a fresh service absorbs one burst
}

void AdmissionController::refill(Time now) {
  DTM_REQUIRE(now >= last_refill_, "admission refill going backwards ("
                                       << now << " < " << last_refill_
                                       << ")");
  if (opts_.rate > 0.0 && now > last_refill_) {
    tokens_ = std::min(opts_.burst,
                       tokens_ + opts_.rate * static_cast<double>(
                                                  now - last_refill_));
  }
  last_refill_ = now;
}

bool AdmissionController::take_token() {
  if (opts_.rate <= 0.0) return true;
  // Epsilon guards the accumulated float drift of rate * steps sums.
  if (tokens_ < 1.0 - 1e-9) return false;
  tokens_ -= 1.0;
  return true;
}

AdmissionController::Outcome AdmissionController::offer(
    const Transaction& txn, Time now, std::int64_t inflight) {
  ++stats_.offered;
  stats_.max_inflight_seen = std::max(stats_.max_inflight_seen, inflight);
  const bool capacity = capacity_ok(inflight);
  if (capacity && take_token()) {
    ++stats_.admitted;
    return Outcome::kAdmit;
  }
  if (opts_.policy == AdmissionOptions::Policy::kQueue) {
    if (static_cast<std::int64_t>(queue_.size()) < opts_.queue_cap) {
      queue_.push_back({txn, now});
      ++stats_.queued;
      stats_.max_queue_depth = std::max(
          stats_.max_queue_depth, static_cast<std::int64_t>(queue_.size()));
      return Outcome::kQueued;
    }
    ++stats_.shed;
    ++stats_.shed_queue_full;
    return Outcome::kShed;
  }
  ++stats_.shed;
  if (!capacity)
    ++stats_.shed_inflight;
  else
    ++stats_.shed_tokens;
  return Outcome::kShed;
}

void AdmissionController::release(Time now, std::int64_t inflight,
                                  std::vector<Release>& out) {
  while (!queue_.empty() && capacity_ok(inflight) && take_token()) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
    ++inflight;
    ++stats_.admitted;
    stats_.max_inflight_seen = std::max(stats_.max_inflight_seen, inflight);
    stats_.max_queue_wait =
        std::max(stats_.max_queue_wait, now - out.back().offered);
  }
}

Time AdmissionController::next_token_time(Time now) const {
  if (opts_.rate <= 0.0 || tokens_ >= 1.0 - 1e-9) return kNoTime;
  const double deficit = 1.0 - tokens_;
  const auto steps = static_cast<Time>(std::ceil(deficit / opts_.rate - 1e-9));
  return now + std::max<Time>(steps, 1);
}

}  // namespace dtm
