// Synthetic tie-heavy SWF trace shared by the rrsim_check CLI
// (--gen-ties), bench/micro_check and the explorer tests — one
// generator, so the bench measures exactly the trace shape the CI
// `check` job gates on.
#pragma once

#include <string>

namespace rrsim::check {

/// Writes `slots` 60-second arrival slots of `ties_per_slot`
/// identical-timestamp jobs of varied width/length — each slot is a tie
/// cohort on whichever cluster its jobs land — to `path`, a file the
/// caller owns (util::TempFile gives each run its own).
void write_ties_trace(int slots, int ties_per_slot, const std::string& path);

}  // namespace rrsim::check
