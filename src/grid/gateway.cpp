#include "rrsim/grid/gateway.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace rrsim::grid {

Gateway::Gateway(des::Simulation& sim, Platform& platform,
                 bool record_predictions)
    : sim_(sim), platform_(platform),
      record_predictions_(record_predictions) {
  for (std::size_t c = 0; c < platform_.size(); ++c) install_callbacks(c);
}

#if RRSIM_VALIDATE_ENABLED
void Gateway::validate_job(GridJobId id) const {
  const Tracked* tracked = tracked_.find(id);
  RRSIM_CHECK(tracked != nullptr, "gateway: tracked job vanished");
  for (const auto& [cluster, rid] : tracked->replicas) {
    RRSIM_CHECK(cluster < platform_.size(),
                "gateway: replica targets a cluster outside the platform");
    const std::uint32_t* gid = replica_to_grid_.find(rid);
    RRSIM_CHECK(gid != nullptr && *gid == id,
                "gateway: replica index does not map a tracked replica "
                "back to its grid job");
  }
}

void Gateway::debug_validate() const {
  std::size_t replica_sum = 0;
  tracked_.for_each([this, &replica_sum](const GridJobId& id,
                                         const Tracked& tracked) {
    replica_sum += tracked.replicas.size();
    (void)tracked;
    validate_job(id);
  });
  RRSIM_CHECK(replica_sum == replica_to_grid_.size(),
              "gateway: replica index size disagrees with the tracked "
              "replica lists");
}

void Gateway::debug_corrupt_tracking() {
  bool done = false;
  tracked_.for_each([this, &done](const GridJobId&, const Tracked& tracked) {
    if (done) return;
    for (const auto& [cluster, rid] : tracked.replicas) {
      (void)cluster;
      if (std::uint32_t* gid = replica_to_grid_.find(rid)) {
        *gid += 1;  // now points at a job that does not own this replica
        done = true;
        return;
      }
    }
  });
}
#endif

void Gateway::install_callbacks(std::size_t cluster) {
  sched::ClusterScheduler::Callbacks cb;
  cb.on_grant = [this, cluster](const sched::Job& job) {
    return on_grant(cluster, job);
  };
  cb.on_finish = [this, cluster](const sched::Job& job) {
    on_finish(cluster, job);
  };
  sched::ClusterScheduler& sched = platform_.scheduler(cluster);
  sched.set_callbacks(std::move(cb));
  // Attribute the scheduler's own events (completions, wake-ups) to its
  // cluster, so tie-break explorers can reason about event independence.
  sched.set_event_tag(static_cast<std::uint32_t>(cluster));
}

void Gateway::submit(const GridJob& job, double remote_inflation) {
  if (remote_inflation < 1.0) {
    throw std::invalid_argument("remote inflation factor must be >= 1");
  }
  if (job.targets.empty()) {
    throw std::invalid_argument("grid job needs >= 1 target");
  }
  if (job.id > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("grid job id exceeds the 32-bit id space");
  }
  if (job.origin >= platform_.size()) {
    throw std::invalid_argument("origin cluster outside the platform");
  }
  if (*std::max_element(job.targets.begin(), job.targets.end()) >=
      platform_.size()) {
    throw std::invalid_argument("target cluster outside the platform");
  }
  if (std::find(job.targets.begin(), job.targets.end(), job.origin) ==
      job.targets.end()) {
    throw std::invalid_argument("origin cluster must be among the targets");
  }
  if (!job.replica_specs.empty() &&
      job.replica_specs.size() != job.targets.size()) {
    throw std::invalid_argument("one replica spec per target required");
  }
  if (job.replica_specs.empty()) {
    // Identical replicas in the same queue are pointless; moldable
    // (shaped) submissions legitimately target one queue repeatedly.
    auto sorted = job.targets;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("duplicate target cluster");
    }
  }
  Tracked fresh;
  fresh.origin = static_cast<std::uint32_t>(job.origin);
  fresh.redundant = job.redundant;
  fresh.replicas_sent = static_cast<std::uint16_t>(
      std::min<std::size_t>(job.targets.size(), 0xffff));
  const auto inserted = tracked_.try_emplace(job.id, std::move(fresh));
  if (!inserted.inserted) {
    throw std::invalid_argument("duplicate grid job id");
  }
  ++submitted_;
  // Safe to hold across the submit loop: nothing below inserts into
  // tracked_ (on_grant/on_finish only read it), so no rehash can move it.
  Tracked& tracked = *inserted.value;
  tracked.replicas.reserve(job.targets.size());

  // Build the replica descriptors first: a replica that starts immediately
  // during submission must already see its siblings registered, otherwise
  // they would escape cancellation.
  struct PendingSubmit {
    std::size_t cluster;
    sched::Job replica;
  };
  std::vector<PendingSubmit> submits;
  submits.reserve(job.targets.size());
  bool first_replica = true;
  for (std::size_t t = 0; t < job.targets.size(); ++t) {
    const std::size_t target = job.targets[t];
    const workload::JobSpec& spec =
        job.replica_specs.empty() ? job.spec : job.replica_specs[t];
    sched::Job replica;
    replica.id = next_replica_id_++;
    replica.nodes = spec.nodes;
    replica.user = job.user;
    // The first replica bypasses pending limits: the user's home
    // submission always eventually enters the queue, only the *extra*
    // redundancy is subject to caps.
    replica.limit_exempt = first_replica && target == job.origin;
    first_replica = false;
    replica.actual_time = spec.runtime;
    // Shaped (moldable) replicas carry explicit requested times; uniform
    // replicas inflate the remote ones per Section 3.1.2.
    replica.requested_time =
        (!job.replica_specs.empty() || target == job.origin)
            ? spec.requested_time
            : spec.requested_time * remote_inflation;
    // Real schedulers kill jobs at the requested limit; keep actual <=
    // requested even when the user under-estimates.
    replica.requested_time = std::max(replica.requested_time,
                                      replica.actual_time);
    replica_to_grid_.insert(replica.id, static_cast<std::uint32_t>(job.id));
    tracked.replicas.push_back(Tracked::Replica{
        static_cast<std::uint32_t>(target), replica.id});
    submits.push_back(PendingSubmit{target, replica});
  }
  for (const PendingSubmit& s : submits) {
    if (middleware_.empty()) {
      deliver_submit(s.cluster, s.replica, /*deferred=*/false);
    } else {
      middleware_[s.cluster]->enqueue(
          [this, cluster = s.cluster, replica = s.replica] {
            deliver_submit(cluster, replica, /*deferred=*/true);
          });
    }
  }
  if (record_predictions_) {
    // Min over replicas of each scheduler's submit-time prediction — how a
    // redundancy-using user would forecast their wait (Section 5). Only
    // replicas still pending have predictions in flight; if one already
    // started, the best prediction is "now".
    std::optional<double> best;
    if (tracked.started) {
      best = sim_.now();
    } else {
      for (const auto& [cluster, rid] : tracked.replicas) {
        const auto p =
            platform_.scheduler(cluster).predicted_start_at_submit(rid);
        if (p && (!best || *p < *best)) best = *p;
      }
    }
    if (best) tracked.predicted_start = *best;
  }
#if RRSIM_VALIDATE_ENABLED
  validate_job(job.id);
#endif
}

void Gateway::reset(bool record_predictions) {
  record_predictions_ = record_predictions;
  middleware_.clear();
  next_replica_id_ = 1;
  replica_to_grid_.clear();
  tracked_.clear();
  sink_ = nullptr;
  records_.clear();
  submitted_ = 0;
  finished_ = 0;
  cancels_issued_ = 0;
  rejected_ = 0;
  dropped_ = 0;
  // Re-install callbacks: a scheduler reset keeps its hooks, but going
  // through the constructor path again makes reuse self-contained.
  for (std::size_t c = 0; c < platform_.size(); ++c) install_callbacks(c);
}

void Gateway::set_middleware(std::vector<MiddlewareStation*> stations) {
  if (!stations.empty() && stations.size() != platform_.size()) {
    throw std::invalid_argument("need one middleware station per cluster");
  }
  if (!stations.empty() && record_predictions_) {
    throw std::invalid_argument(
        "submit-time predictions need instantaneous delivery");
  }
  for (const MiddlewareStation* s : stations) {
    if (s == nullptr) throw std::invalid_argument("null middleware station");
  }
  for (std::size_t c = 0; c < stations.size(); ++c) {
    stations[c]->set_event_tag(static_cast<std::uint32_t>(c));
  }
  middleware_ = std::move(stations);
}

void Gateway::deliver_submit(std::size_t cluster, const sched::Job& replica,
                             bool deferred) {
  const std::uint32_t* gid = replica_to_grid_.find(replica.id);
  if (gid == nullptr) return;  // defensive: unknown replica
  const GridJobId grid_id = *gid;
  Tracked& tracked = tracked_.at(grid_id);
  if (deferred && tracked.started) {
    // The job already started elsewhere while this submission was in
    // flight; delivering it would only create a request that is
    // immediately declined. Drop it: it costs neither a submission nor a
    // cancellation (the canceling client simply skips it).
    ++dropped_;
    replica_to_grid_.erase(replica.id);
    std::erase_if(tracked.replicas,
                  [&](const Tracked::Replica& p) { return p.id == replica.id; });
    return;
  }
  if (!platform_.scheduler(cluster).submit(replica)) {
    // Refused by a per-user pending limit: forget the replica.
    ++rejected_;
    replica_to_grid_.erase(replica.id);
    std::erase_if(tracked.replicas,
                  [&](const Tracked::Replica& p) { return p.id == replica.id; });
  }
  // Note: tracked.job.redundant deliberately keeps the *intent* (the user
  // sent redundant requests), even if drops/rejections leave one replica —
  // the paper's r-jobs/n-r-jobs classes are about user behaviour.
#if RRSIM_VALIDATE_ENABLED
  validate_job(grid_id);
#endif
}

void Gateway::deliver_cancel(std::size_t cluster, sched::JobId replica) {
  if (platform_.scheduler(cluster).cancel(replica)) {
    ++cancels_issued_;
  }
}

bool Gateway::on_grant(std::size_t cluster, const sched::Job& job) {
  const std::uint32_t* gid = replica_to_grid_.find(job.id);
  if (gid == nullptr) {
    // Not a gateway-managed job (e.g. background load) — always allow.
    return true;
  }
  const GridJobId grid_id = *gid;
  Tracked& tracked = tracked_.at(grid_id);
  if (tracked.started) {
    // A sibling replica already won; refuse this start. The scheduler
    // drops the request, which also counts as the "cancellation" of this
    // replica from the middleware's point of view.
    ++cancels_issued_;
    return false;
  }
  tracked.started = true;
  tracked.winner = static_cast<std::uint32_t>(cluster);
  cancel_siblings(grid_id, cluster);
  return true;
}

void Gateway::cancel_siblings(GridJobId id, std::size_t winner_cluster) {
  // Zero-delay deferred cancellation: issuing qdel from inside another
  // scheduler's scheduling pass would mutate queues mid-iteration, so the
  // cancellations land as same-timestamp events right after the current
  // one. A sibling that gets granted in between is declined by on_grant.
  const Tracked& tracked = tracked_.at(id);
  for (const auto& [cluster, rid] : tracked.replicas) {
    if (cluster == winner_cluster) continue;
    if (middleware_.empty()) {
      sim_.schedule_in(
          0.0, [this, cluster, rid] { deliver_cancel(cluster, rid); },
          des::Priority::kCancel, cluster);
    } else {
      // The qdel is itself a middleware transaction and arrives late.
      middleware_[cluster]->enqueue(
          [this, cluster, rid] { deliver_cancel(cluster, rid); });
    }
  }
}

void Gateway::on_finish(std::size_t cluster, const sched::Job& job) {
  const std::uint32_t* gid = replica_to_grid_.find(job.id);
  if (gid == nullptr) return;
  const GridJobId grid_id = *gid;
  Tracked& tracked = tracked_.at(grid_id);

  if (sink_ != nullptr) {
    metrics::JobRecord32 rec;
    rec.grid_id = static_cast<std::uint32_t>(grid_id);
    rec.origin_cluster = static_cast<std::uint16_t>(tracked.origin);
    rec.winner_cluster = static_cast<std::uint16_t>(cluster);
    rec.redundant = tracked.redundant;
    rec.replicas = static_cast<std::uint8_t>(
        std::min<unsigned>(tracked.replicas_sent, 0xff));
    rec.replicas_delivered = static_cast<std::uint8_t>(
        std::min<std::size_t>(tracked.replicas.size(), 0xff));
    rec.nodes = static_cast<std::uint16_t>(
        std::min(job.nodes, 0xffff));
    rec.submit_time = job.submit_time;
    rec.start_time = job.start_time;
    rec.finish_time = job.finish_time;
    rec.actual_time = job.actual_time;
    rec.predicted_start = tracked.predicted_start;  // NaN = none
    sink_->add(rec);
  } else {
    metrics::JobRecord rec;
    rec.grid_id = grid_id;
    rec.origin_cluster = tracked.origin;
    rec.winner_cluster = cluster;
    rec.redundant = tracked.redundant;
    rec.replicas = static_cast<int>(tracked.replicas_sent);
    // tracked.replicas holds the replicas actually *delivered* (dropped
    // and limit-rejected ones were removed; nothing else shrinks the
    // list).
    rec.replicas_delivered = static_cast<int>(tracked.replicas.size());
    rec.nodes = job.nodes;
    rec.submit_time = job.submit_time;
    rec.start_time = job.start_time;
    rec.finish_time = job.finish_time;
    rec.actual_time = job.actual_time;
    rec.requested_time = job.requested_time;
    if (!std::isnan(tracked.predicted_start)) {
      rec.predicted_start = tracked.predicted_start;
    }
    records_.push_back(rec);
  }
  ++finished_;
  // Reclaim the job's tracking state. With direct delivery and a finish
  // strictly after the start, no event can reference these replicas any
  // more: every sibling was declined or cancelled at the start instant.
  // Three bounded exceptions keep their entries: middleware (a late
  // deliver_submit still needs tracked.started to count drops),
  // zero-length runs (finish at the start instant may still race
  // same-timestamp sibling grants), and moldable same-queue siblings —
  // those are never qdel'ed (cancel_siblings skips the winner's cluster)
  // and rely on the grant-time decline, which needs the tracking entry.
  bool same_queue_sibling = false;
  for (const auto& [rcluster, rid] : tracked.replicas) {
    if (rid != job.id && rcluster == cluster) {
      same_queue_sibling = true;
      break;
    }
  }
  if (middleware_.empty() && job.finish_time > job.start_time &&
      !same_queue_sibling) {
    for (const auto& [rcluster, rid] : tracked.replicas) {
      (void)rcluster;
      replica_to_grid_.erase(rid);
    }
    tracked_.erase(grid_id);
  }
}

std::uint64_t Gateway::cross_cluster_links() const noexcept {
  std::uint64_t links = 0;
  tracked_.for_each([&links](const GridJobId&, const Tracked& t) {
    for (std::size_t i = 1; i < t.replicas.size(); ++i) {
      if (t.replicas[i].cluster != t.replicas[0].cluster) {
        ++links;
        break;
      }
    }
  });
  return links;
}

std::size_t Gateway::live_state_bytes() const noexcept {
  std::size_t replica_bytes = 0;
  tracked_.for_each([&replica_bytes](const GridJobId&, const Tracked& t) {
    replica_bytes += t.replicas.capacity() * sizeof(Tracked::Replica);
  });
  return tracked_.memory_bytes() + replica_to_grid_.memory_bytes() +
         replica_bytes;
}

}  // namespace rrsim::grid
