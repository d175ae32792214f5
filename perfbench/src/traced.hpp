// The --trace 1 runs: every per-layer metric, measured from the benchmark's
// own spans (layers.hpp) plus the counters of a shortened service run.
#pragma once

#include "common.hpp"

namespace perfbench {

Result traced_serve(const Options& opt, bool saturate);
Result traced_train(const Options& opt);

}  // namespace perfbench
