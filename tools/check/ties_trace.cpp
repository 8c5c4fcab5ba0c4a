#include "ties_trace.h"

#include "rrsim/workload/swf.h"

namespace rrsim::check {

void write_ties_trace(int slots, int ties_per_slot, const std::string& path) {
  workload::JobStream stream;
  int i = 0;
  for (int c = 0; c < slots; ++c) {
    for (int j = 0; j < ties_per_slot; ++j, ++i) {
      workload::JobSpec job;
      job.submit_time = 60.0 * static_cast<double>(c);
      job.nodes = 1 + i % 8;
      job.runtime = 30.0 + static_cast<double>(i % 7) * 12.5;
      job.requested_time = job.runtime + 10.0;
      stream.push_back(job);
    }
  }
  workload::write_swf_file(path, stream);
}

}  // namespace rrsim::check
