#include "stream/config.hpp"

#include "sim/registry.hpp"
#include "util/check.hpp"

namespace dtm {

void StreamConfig::validate() const {
  DTM_REQUIRE(profile == "steady" || profile == "diurnal" ||
                  profile == "mmpp" || profile == "adversary",
              "stream: unknown profile '"
                  << profile
                  << "' (expected steady|diurnal|mmpp|adversary)");
  DTM_REQUIRE(rate > 0.0, "stream: rate " << rate);
  DTM_REQUIRE(objects >= 0, "stream: objects " << objects);
  DTM_REQUIRE(k >= 1, "stream: k " << k);
  DTM_REQUIRE(zipf >= 0.0, "stream: zipf " << zipf);
  DTM_REQUIRE(write_frac >= 0.0 && write_frac <= 1.0,
              "stream: write-frac " << write_frac);
  DTM_REQUIRE(rotate_every >= 0, "stream: rotate-every " << rotate_every);
  DTM_REQUIRE(period >= 1, "stream: period " << period);
  DTM_REQUIRE(duty > 0.0 && duty <= 1.0, "stream: duty " << duty);
  DTM_REQUIRE(low_mult >= 0.0, "stream: low-mult " << low_mult);
  DTM_REQUIRE(dwell_on >= 1 && dwell_off >= 1,
              "stream: dwell " << dwell_on << "/" << dwell_off);
  DTM_REQUIRE(hi_mult > 0.0, "stream: hi-mult " << hi_mult);
  DTM_REQUIRE(burst >= 1.0, "stream: burst " << burst);
  DTM_REQUIRE(target >= 0, "stream: target " << target);
  DTM_REQUIRE(duration >= 0, "stream: duration " << duration);
  DTM_REQUIRE(target > 0 || duration > 0,
              "stream: need a stop condition (target or duration)");
  DTM_REQUIRE(window >= 1, "stream: window " << window);
  DTM_REQUIRE(max_live >= 0, "stream: max-live " << max_live);
  DTM_REQUIRE(ratio_every >= 1, "stream: ratio-every " << ratio_every);
}

StreamConfig Registry::make_stream_config(const Spec& spec,
                                          std::uint64_t default_seed) {
  SpecArgs a(spec);
  DTM_REQUIRE(a.kind() == "stream",
              "unknown stream config '" << a.kind()
                                        << "' (stream:knob=value,...)");
  StreamConfig c;
  c.profile = a.str("profile", c.profile);
  c.rate = a.real("rate", c.rate);
  c.objects = static_cast<std::int32_t>(a.integer("objects", c.objects));
  c.k = static_cast<std::int32_t>(a.integer("k", c.k));
  c.zipf = a.real("zipf", c.zipf);
  c.write_frac = a.real("write-frac", c.write_frac);
  c.rotate_every = a.integer("rotate-every", c.rotate_every);
  c.period = a.integer("period", c.period);
  c.duty = a.real("duty", c.duty);
  c.low_mult = a.real("low-mult", c.low_mult);
  c.dwell_on = a.integer("dwell-on", c.dwell_on);
  c.dwell_off = a.integer("dwell-off", c.dwell_off);
  c.hi_mult = a.real("hi-mult", c.hi_mult);
  c.burst = a.real("burst", c.burst);
  c.target = a.integer("target", c.target);
  c.duration = a.integer("duration", c.duration);
  c.window = a.integer("window", c.window);
  c.drain_every = a.integer("drain-every", c.drain_every);
  c.max_live = a.integer("max-live", c.max_live);
  c.ratio_every = a.integer("ratio-every", c.ratio_every);
  c.seed = static_cast<std::uint64_t>(
      a.integer("seed", static_cast<std::int64_t>(default_seed)));
  a.finish();
  c.validate();
  return c;
}

}  // namespace dtm
