// LatencyRecorder moved to util/latency.hpp; bench/e2e includes this path.
#pragma once

#include "util/latency.hpp"
