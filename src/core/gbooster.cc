#include "core/gbooster.h"

#include <algorithm>

#include "common/error.h"
#include "gles/state_snapshot.h"
#include "wire/decoder.h"

namespace gb::core {
namespace {

// The frame's state-mutating records (what the replicas need between
// frames), or with `state == false` the rest (the draws).
wire::FrameCommands subset(const wire::FrameCommands& frame, bool state) {
  wire::FrameCommands out;
  out.sequence = frame.sequence;
  for (const wire::CommandRecord& record : frame.records) {
    if (wire::mutates_shared_state(record.op()) == state) {
      out.records.push_back(record);
    }
  }
  return out;
}

}  // namespace

GBoosterRuntime::GBoosterRuntime(EventLoop& loop, GBoosterConfig config,
                                 net::ReliableEndpoint& endpoint,
                                 std::vector<ServiceDeviceInfo> devices)
    : loop_(loop),
      config_(config),
      endpoint_(endpoint),
      dispatcher_(devices, config.dispatch_policy),
      governor_(config.qos),
      tracer_(config.tracer) {
  for (const ServiceDeviceInfo& d : devices) add_device_slot(d.node);
  if (config_.shared_dedup) {
    join_pending_ = true;
    schedule_after_guarded(config_.join_delay, [this] { join_tick(); });
    // The deadline is absolute (not re-armed per retry): a session must
    // never stall on an unrouted endpoint or a silent service.
    schedule_after_guarded(config_.join_delay + config_.manifest_wait,
                         [this] { finish_join(); });
  }
  recorder_ = std::make_unique<wire::CommandRecorder>(
      config_.nominal_width, config_.nominal_height,
      [this](wire::FrameCommands frame) { return on_frame(std::move(frame)); });
  endpoint_.set_abandon_handler(
      [this](net::NodeId stream, std::uint64_t message_id) {
        on_transport_abandon(stream, message_id);
      });
  if (config_.health.enabled) {
    schedule_after_guarded(config_.health.probe_interval,
                         [this] { heartbeat_tick(); });
  }
  if (config_.qos.enabled) {
    schedule_after_guarded(config_.qos.window, [this] { qos_tick(); });
  }
}

void GBoosterRuntime::add_device_slot(net::NodeId node) {
  device_nodes_.push_back(node);
  migration_dark_.push_back(0);
  render_caches_.push_back(std::make_unique<compress::CommandCache>());
  cache_epochs_.push_back(0);
  mirror_revs_.push_back(0);
  apply_floors_.push_back(0);
  needs_snapshot_.push_back(false);
  snapshot_covers_ids_.push_back(0);
  manifests_.push_back(nullptr);
}

EventLoop::EventId GBoosterRuntime::schedule_after_guarded(
    SimTime delay, std::function<void()> fn) {
  return schedule_at_guarded(loop_.now() + delay, std::move(fn));
}

EventLoop::EventId GBoosterRuntime::schedule_at_guarded(
    SimTime at, std::function<void()> fn) {
  return loop_.schedule_at(
      at, [alive = std::weak_ptr<char>(alive_), fn = std::move(fn)] {
        if (alive.expired()) return;  // runtime destroyed; stale event
        fn();
      });
}

void GBoosterRuntime::register_invariant_probes(
    runtime::InvariantAuditor& auditor, const std::string& component,
    double frame_rate_hint_hz) const {
  // Pending tables: bounded by the configured window plus the frames the
  // failure paths may briefly hold past it (redispatch cohorts, join holds).
  const double window =
      static_cast<double>(std::max(config_.max_pending_requests, 1));
  // Presenter-side tables additionally absorb everything issued across a
  // cursor stall (two gap timeouts of slack, matching ready_frame_age_s).
  const double stall_backlog =
      frame_rate_hint_hz > 0.0
          ? frame_rate_hint_hz *
                (config_.display_gap_timeout.seconds() * 2.0 + 1.0)
          : 0.0;
  auditor.add_bound(component, "in_flight",
                    [this] { return static_cast<double>(in_flight_.size()); },
                    window * 2.0 + 8.0);
  // The out-of-order buffer drains on the display cursor, so its *size*
  // scales with the issue rate whenever a gap stalls the cursor (a device
  // outage can legitimately park a couple of seconds' worth of completed
  // frames here). The invariant is *staleness*: the gap timer advances the
  // cursor past any hole within display_gap_timeout, so no ready frame may
  // wait much longer than that — and a leaked entry ages without bound.
  auditor.add_bound(
      component, "ready_frame_age_s",
      [this] {
        if (ready_.empty()) return 0.0;
        SimTime oldest = ready_.begin()->second.displayable_at;
        for (const auto& [seq, frame] : ready_) {
          oldest = std::min(oldest, frame.displayable_at);
        }
        return (loop_.now() - oldest).seconds();
      },
      config_.display_gap_timeout.seconds() * 2.0 + 1.0);
  // Each in-flight frame owns at most two transport messages (render +
  // state), plus outstanding snapshots.
  auditor.add_bound(component, "msg_to_seq",
                    [this] { return static_cast<double>(msg_to_seq_.size()); },
                    window * 4.0 + 16.0);
  auditor.add_bound(
      component, "shed_pending",
      [this] { return static_cast<double>(shed_sequences_.size()); },
      window * 2.0 + 8.0 + stall_backlog);
  auditor.add_bound(
      component, "pending_pings",
      [this] { return static_cast<double>(pending_pings_.size()); },
      static_cast<double>(std::max<std::size_t>(device_nodes_.size(), 1)) *
          4.0);
  // Monotonicity: the presenter cursor and the state epoch only advance.
  auditor.add_monotonic(component, "next_display_sequence", [this] {
    return static_cast<double>(next_display_sequence_);
  });
  auditor.add_monotonic(component, "state_epoch", [this] {
    return static_cast<double>(state_epoch_);
  });
  // Presenter gap accounting: every sequence the presenter stepped past was
  // displayed, dropped, or shed — the cursor can never outrun the frames
  // accounted for plus what is still pending/ready.
  auditor.add_probe(component, "presenter_accounting", [this] {
    const std::uint64_t accounted =
        stats_.frames_displayed + stats_.frames_dropped +
        stats_.frames_shed_window + stats_.frames_shed_deadline +
        stats_.frames_shed_void + stats_.frames_shed_service;
    const std::uint64_t pending = in_flight_.size() + ready_.size() +
                                  shed_sequences_.size() + join_hold_.size();
    runtime::InvariantAuditor::Report r;
    r.ok = next_display_sequence_ <= accounted + pending;
    r.detail = "cursor=" + std::to_string(next_display_sequence_) +
               " accounted=" + std::to_string(accounted) +
               " pending=" + std::to_string(pending) +
               (r.ok ? "" : "  VIOLATED");
    return r;
  });
}

std::size_t GBoosterRuntime::active_in_flight() const {
  std::size_t active = 0;
  for (const auto& [sequence, flight] : in_flight_) {
    if (!flight.shed) active++;
  }
  return active;
}

bool GBoosterRuntime::can_issue_frame() {
  // Under overload the governor shrinks the pending window (DESIGN.md §11):
  // frames admitted past what the transport can carry only queue behind the
  // repair traffic and fatten the display tail.
  const int window = governor_.depth_cap(config_.max_pending_requests);
  // Frames held for the join handshake occupy window slots: the application
  // keeps generating up to the window during the manifest wait, then the
  // whole cohort flows at once.
  if (static_cast<int>(active_in_flight() + join_hold_.size()) < window) {
    return true;
  }
  // All-dead, no fallback: frames are shed at the head (on_frame), so the
  // application is never throttled against a void.
  if (!config_.enable_local_fallback && dispatcher_.healthy_count() == 0) {
    return true;
  }
  // Keep-latest: a full window admits the new frame when an older
  // undispatched one can be shed in its place.
  if (governor_.keep_latest()) {
    for (const auto& [sequence, flight] : in_flight_) {
      if (!flight.dispatched && !flight.local && !flight.shed) return true;
    }
  }
  stats_.issue_stalls++;
  return false;
}

void GBoosterRuntime::qos_tick() {
  const double backlog_ms =
      endpoint_.route() != nullptr ? endpoint_.route()->backlog().ms() : 0.0;
  const std::size_t depth = active_in_flight();
  if (governor_.evaluate(loop_.now(), backlog_ms, depth)) {
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      tracer_->instant(
          "qos_level", endpoint_.id(), loop_.now(),
          {{"level", static_cast<double>(governor_.level())},
           {"quality", static_cast<double>(governor_.quality())},
           {"window_p95_ms", governor_.last_window_p95_ms()},
           {"backlog_ms", backlog_ms},
           {"pending_depth", static_cast<double>(depth)}});
    }
  }
  schedule_after_guarded(config_.qos.window, [this] { qos_tick(); });
}

void GBoosterRuntime::install(hooking::DynamicLinker& linker,
                              const std::string& soname) {
  // Bind the genuine driver while the preload list still resolves to it:
  // this handle is the §IV-A escape hatch the local-render fallback draws
  // through once the wrapper shadows every other lookup path.
  if (config_.enable_local_fallback && local_gles_ == nullptr) {
    try {
      local_gles_ = linker.link_gles("libGLESv2.so");
    } catch (const Error&) {
      // No genuine driver registered (pure analytic harness): fallback
      // frames keep their timing model but produce no replica pixels.
    }
  }
  linker.register_library(
      hooking::LibraryImage::exporting_all(soname, recorder_.get()));
  std::vector<std::string> preload = linker.preload();
  preload.insert(preload.begin(), soname);
  linker.set_preload(std::move(preload));
}

std::size_t GBoosterRuntime::memory_overhead_bytes() const {
  std::size_t total = recorder_->overhead_bytes();
  total += state_cache_.resident_bytes();
  for (const auto& cache : render_caches_) total += cache->resident_bytes();
  return total;
}

std::optional<std::size_t> GBoosterRuntime::index_of(net::NodeId node) const {
  for (std::size_t j = 0; j < device_nodes_.size(); ++j) {
    if (device_nodes_[j] == node) return j;
  }
  return std::nullopt;
}

void GBoosterRuntime::erase_msg_entries(const InFlight& flight) {
  if (flight.has_render_msg) {
    msg_to_seq_.erase(
        {device_nodes_[flight.device_index], flight.render_msg_id});
  }
  if (flight.has_state_msg) {
    msg_to_seq_.erase({config_.state_group, flight.state_msg_id});
  }
}

void GBoosterRuntime::trace_dispatch(std::uint64_t sequence, double workload,
                                     std::size_t device_index) {
  if (!runtime::kTracingCompiledIn || tracer_ == nullptr) return;
  // The Eq. 4 scores behind this pick, one per device (-1 = dead).
  std::vector<std::pair<std::string, double>> args;
  args.emplace_back("sequence", static_cast<double>(sequence));
  args.emplace_back("chosen", static_cast<double>(device_index));
  for (std::size_t j = 0; j < device_nodes_.size(); ++j) {
    const double cost =
        dispatcher_.healthy(j)
            ? (dispatcher_.queued_workload(j) + workload) /
                      dispatcher_.device(j).capability_pps +
                  dispatcher_.estimated_delay(j).seconds()
            : -1.0;
    args.emplace_back("eq4_cost_" + std::to_string(j), cost);
  }
  tracer_->instant("dispatch", endpoint_.id(), loop_.now(), std::move(args));
}

bool GBoosterRuntime::on_frame(wire::FrameCommands frame) {
  check(!device_nodes_.empty(), "no service devices configured");
  if (join_pending_) {
    // Holding the cold-start frames until the manifests arrive is what lets
    // the very first upload ship as shared references; finish_join() replays
    // them through this path in issue order.
    if (join_hold_.empty()) join_hold_started_ = loop_.now();
    stats_.frames_held_for_manifest++;
    join_hold_.push_back(std::move(frame));
    return true;
  }
  const std::uint64_t sequence = frame.sequence;
  // Eq. 4 inputs.
  const double workload = workload_override_
                              ? workload_override_()
                              : recorder_->last_frame_profile().workload_pixels;
  const bool no_healthy = dispatcher_.healthy_count() == 0;
  const bool local = no_healthy && config_.enable_local_fallback;

  // All devices dead, no fallback: admitting the frame would only flood a
  // dead device's stream with payloads the gap timeout later reclaims, and
  // wedge the window once it fills. Shed at the head instead: no transport
  // traffic, no stall — the presenter steps straight over the sequence.
  if (no_healthy && !local) {
    stats_.frames_shed_void++;
    shed_sequences_.insert(sequence);
    if (device_nodes_.size() > 1) {
      // The replicas miss this frame's state records for real (the shadow
      // context still has them, so a revival snapshot recovers the stream).
      state_apply_floor_ = std::max(state_apply_floor_, sequence + 1);
      needs_snapshot_.assign(needs_snapshot_.size(), true);
    } else {
      apply_floors_[0] = std::max(apply_floors_[0], sequence + 1);
    }
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      tracer_->instant("frame_shed", endpoint_.id(), loop_.now(),
                       {{"sequence", static_cast<double>(sequence)},
                        {"cause_void", 1.0}});
    }
    present_in_order();
    return true;
  }

  // Keep-latest: when the window is full, the oldest frame still waiting for
  // the packing core is shed to make room — the new frame carries fresher
  // input, and a frame that has not been dispatched yet is the only one that
  // can be reclaimed without desyncing a cache mirror.
  if (governor_.keep_latest() &&
      static_cast<int>(active_in_flight()) >=
          governor_.depth_cap(config_.max_pending_requests)) {
    for (auto& [old_sequence, old_flight] : in_flight_) {
      if (!old_flight.dispatched && !old_flight.local && !old_flight.shed) {
        stats_.frames_shed_window++;
        mark_shed(old_sequence, old_flight, "window");
        break;
      }
    }
  }

  std::size_t device_index = 0;
  if (!local) {
    device_index = dispatcher_.pick(workload);
    trace_dispatch(sequence, workload, device_index);
    dispatcher_.on_assigned(device_index, workload);
  }

  const std::uint64_t depth = active_in_flight() + 1;
  stats_.pending_depth_sum += depth;
  stats_.pending_depth_samples++;
  stats_.pending_depth_max = std::max(stats_.pending_depth_max, depth);

  InFlight flight;
  flight.issued = loop_.now();
  flight.device_index = device_index;
  flight.workload = workload;
  flight.local = local;
  // Shadow replica: offloaded frames contribute their state records now, so
  // the local context can take over mid-stream; fallback frames replay in
  // full when they render (exactly once either way).
  if (!local && local_gles_ != nullptr) {
    try {
      wire::replay_frame(subset(frame, /*state=*/true), *local_gles_);
    } catch (const Error&) {
      // A divergent replica only degrades fallback pixels, never the stream.
    }
  }
  flight.state_applied_locally = !local;
  flight.records = std::move(frame);
  in_flight_.emplace(sequence, std::move(flight));

  // Encode is deferred to pump pickup — the frame may still be shed, and a
  // shed frame must never have touched the mirrors. Local frames also flow
  // through the queue so their state-only multicast encodes in sequence
  // order against the shared state cache.
  dispatch_queue_.push_back(sequence);
  schedule_pump();
  return true;
}

void GBoosterRuntime::schedule_payload_send(std::uint64_t sequence,
                                            std::size_t device_index,
                                            Bytes state_message,
                                            Bytes render_message) {
  const net::NodeId renderer = device_nodes_[device_index];
  // The payloads were encoded against the *current* cache generations; if
  // either mirror restarts while they wait behind the packing core, they
  // reference a dead epoch and must not be sent (see the epoch checks in
  // the lambda).
  const std::uint32_t render_epoch = cache_epochs_[device_index];
  const std::uint32_t state_epoch = state_epoch_;
  schedule_at_guarded(
      cpu_busy_until_,
      [this, sequence, device_index, renderer, render_epoch, state_epoch,
       state_message = std::move(state_message),
       render_message = std::move(render_message)]() mutable {
        if (!state_message.empty()) {
          if (state_epoch != state_epoch_) {
            // The shared state cache restarted while this payload was
            // queued; delivering it after the replicas reset would poison
            // their mirrors again. Drop it and float the floor so nobody
            // waits on the sequence.
            state_apply_floor_ = std::max(state_apply_floor_, sequence + 1);
          } else {
            // Track acks only for devices that can answer: a dead member
            // would pin the message outstanding for its whole outage. The
            // excluded member misses the message for real, so flag it for
            // a revival snapshot.
            std::vector<net::NodeId> members;
            for (std::size_t i = 0; i < device_nodes_.size(); ++i) {
              if (dispatcher_.healthy(i)) {
                members.push_back(device_nodes_[i]);
              } else {
                needs_snapshot_[i] = true;
              }
            }
            if (members.empty()) {
              // Every replica is dead: there is no one to multicast to (and
              // send_multicast rejects an empty group). They all miss this
              // sequence for real — float the floor so nobody waits on it;
              // the snapshot flags set above heal the replicas on revival.
              state_apply_floor_ = std::max(state_apply_floor_, sequence + 1);
            } else {
              const std::uint64_t id = endpoint_.send_multicast(
                  config_.state_group, members, std::move(state_message));
              msg_to_seq_[{config_.state_group, id}] = sequence;
              state_msgs_sent_ = id + 1;
              const auto it = in_flight_.find(sequence);
              if (it != in_flight_.end()) {
                it->second.has_state_msg = true;
                it->second.state_msg_id = id;
              }
            }
          }
        }
        if (render_message.empty()) return;
        const auto it = in_flight_.find(sequence);
        // The frame may have been re-routed (device died) or reclaimed
        // (gap timeout) while the packing core was busy; don't send stale
        // payloads to the old renderer.
        if (it == in_flight_.end() || it->second.local ||
            it->second.device_index != device_index) {
          return;
        }
        if (cache_epochs_[device_index] != render_epoch) {
          // Mirror restarted while this payload was queued: its encoding
          // references the dead epoch. The device skips the sequence via
          // the floor on later frames; the presenter's gap timeout
          // reclaims the frame itself.
          apply_floors_[device_index] =
              std::max(apply_floors_[device_index], sequence + 1);
          return;
        }
        const std::uint64_t id =
            endpoint_.send(renderer, std::move(render_message));
        it->second.has_render_msg = true;
        it->second.render_msg_id = id;
        msg_to_seq_[{renderer, id}] = sequence;
        if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
          tracer_->begin(runtime::Stage::kUplink, endpoint_.id(), sequence,
                         loop_.now());
        }
      });
}

void GBoosterRuntime::mark_shed(std::uint64_t sequence, InFlight& flight,
                                const char* cause, bool release_assignment) {
  flight.shed = true;
  shed_sequences_.insert(sequence);
  if (release_assignment) {
    dispatcher_.on_abandoned(flight.device_index, flight.workload);
  }
  // The renderer will never see this sequence; in multi-device mode its
  // state-only copy still flows (contiguity), so only the render stream
  // floor floats.
  apply_floors_[flight.device_index] =
      std::max(apply_floors_[flight.device_index], sequence + 1);
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("frame_shed", endpoint_.id(), loop_.now(),
                     {{"sequence", static_cast<double>(sequence)},
                      {std::string("cause_") + cause, 1.0}});
  }
  // Wake the presenter on its own event: it may reclaim in_flight_ entries,
  // and callers of mark_shed still hold references into the table.
  schedule_at_guarded(loop_.now(), [this] { present_in_order(); });
}

Bytes GBoosterRuntime::encode_render(std::uint64_t sequence, InFlight& flight,
                                     bool redispatch) {
  const std::size_t index = flight.device_index;
  RenderRequestHeader header;
  header.sequence = sequence;
  header.workload_pixels = flight.workload;
  header.priority = config_.request_priority;
  header.cache_epoch = cache_epochs_[index];
  header.apply_floor = apply_floors_[index];
  header.mirror_rev = mirror_revs_[index]++;
  // A re-dispatch target already holds (or will hold) this frame's state
  // records from the multicast copy, so it replays draws only, and it
  // encodes at the service default.
  header.redispatch = redispatch;
  if (!redispatch) {
    header.quality = governor_.quality();
    header.skip_threshold = governor_.skip_threshold();
    flight.quality = header.quality;
    stats_.frames_offloaded++;
  }
  flight.dispatched = true;  // the pump must not dispatch it again
  return make_render_message(header, flight.records, *render_caches_[index],
                             stats_.render_cache, device_manifest(index));
}

double GBoosterRuntime::charge_packing(std::size_t bytes) {
  const double serialize_s =
      static_cast<double>(bytes) * 8.0 / config_.serialize_throughput_bps +
      0.0003;
  stats_.serialize_seconds += serialize_s;
  stats_.bytes_sent += bytes;
  cpu_busy_until_ =
      std::max(cpu_busy_until_, loop_.now()) + seconds(serialize_s);
  return serialize_s;
}

void GBoosterRuntime::trace_encode(std::uint64_t sequence,
                                   const compress::CacheStats& render_before,
                                   const compress::CacheStats& state_before,
                                   std::size_t wire_bytes) {
  if (!runtime::kTracingCompiledIn || tracer_ == nullptr) return;
  // Growth of one CacheStats counter across both caches since the snapshots.
  const auto delta = [&](std::uint64_t compress::CacheStats::*field) {
    return static_cast<double>(
        (stats_.render_cache.*field - render_before.*field) +
        (stats_.state_cache.*field - state_before.*field));
  };
  const double deduped = delta(&compress::CacheStats::bytes_out);
  const double wire = static_cast<double>(wire_bytes);
  tracer_->instant("encode", endpoint_.id(), loop_.now(),
                   {{"sequence", static_cast<double>(sequence)},
                    {"cache_hits", delta(&compress::CacheStats::hits)},
                    {"cache_misses", delta(&compress::CacheStats::misses)},
                    {"raw_bytes", delta(&compress::CacheStats::bytes_in)},
                    {"deduped_bytes", deduped},
                    {"wire_bytes", wire},
                    {"lz4_ratio", deduped > 0.0 ? wire / deduped : 1.0}});
}

void GBoosterRuntime::schedule_pump() {
  if (pump_scheduled_ || dispatch_queue_.empty()) return;
  pump_scheduled_ = true;
  schedule_at_guarded(std::max(loop_.now(), cpu_busy_until_), [this] {
    pump_scheduled_ = false;
    pump_dispatch_queue();
  });
}

void GBoosterRuntime::pump_dispatch_queue() {
  while (!dispatch_queue_.empty()) {
    if (cpu_busy_until_ > loop_.now()) {
      schedule_pump();
      return;
    }
    const std::uint64_t sequence = dispatch_queue_.front();
    dispatch_queue_.pop_front();
    const auto it = in_flight_.find(sequence);
    if (it == in_flight_.end()) continue;  // reclaimed by the gap timeout
    InFlight& flight = it->second;
    if (flight.dispatched) continue;  // re-dispatched by the failure path

    // Deadline shedding: a frame that sat in the queue past the governor's
    // staleness deadline carries input the player has visually moved past.
    if (!flight.shed && !flight.local &&
        governor_.stale(loop_.now() - flight.issued)) {
      stats_.frames_shed_deadline++;
      mark_shed(sequence, flight, "deadline");
    }

    // Encode now, against the current mirrors. A shed frame still sends its
    // state-only copy in multi-device mode — a hole in the state stream
    // would poison every replica's decode timeline — with renderer_node 0 so
    // every replica applies it. Local frames multicast state the same way.
    const bool offload = !flight.shed && !flight.local;
    const compress::CacheStats render_before = stats_.render_cache;
    const compress::CacheStats state_before = stats_.state_cache;
    Bytes state_message;
    if (device_nodes_.size() > 1) {
      StateHeader header;
      header.sequence = sequence;
      header.renderer_node = offload ? device_nodes_[flight.device_index] : 0;
      header.cache_epoch = state_epoch_;
      header.apply_floor = state_apply_floor_;
      state_message =
          make_state_message(header, subset(flight.records, /*state=*/true),
                             state_cache_, stats_.state_cache,
                             state_manifest());
    }
    Bytes render_message;
    if (offload) render_message = encode_render(sequence, flight, false);

    const std::size_t total_bytes =
        render_message.size() + state_message.size();
    if (total_bytes > 0) {
      const double serialize_s = charge_packing(total_bytes);
      if (!flight.shed) {
        flight.sent_bytes = total_bytes;
        flight.serialize_s = serialize_s;
        if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
          // Queue wait on the packing core counts toward serialize: the span
          // runs from issue until the payload leaves the user device.
          tracer_->span(runtime::Stage::kSerialize, endpoint_.id(), sequence,
                        flight.issued, cpu_busy_until_);
        }
      }
      trace_encode(sequence, render_before, state_before, total_bytes);
      if (!state_message.empty()) stats_.state_messages++;
      schedule_payload_send(sequence, flight.device_index,
                            std::move(state_message),
                            std::move(render_message));
    }
    if (flight.local) {
      render_locally(sequence);
    } else if (flight.shed) {
      // Nothing further will reference this frame: its dispatcher assignment
      // was released at shed time and its state copy (if any) is already in
      // the transport's hands.
      erase_msg_entries(flight);
      in_flight_.erase(it);
    }
  }
}

// --- shared-store dedup (DESIGN.md §14) -------------------------------------

void GBoosterRuntime::join_tick() {
  // The endpoint may not be routed yet (runtime constructed before media
  // binding); retry until transmissions can actually flow. The finish_join
  // deadline armed at construction bounds the wait either way.
  if (endpoint_.route() == nullptr) {
    schedule_after_guarded(ms(1), [this] { join_tick(); });
    return;
  }
  if (join_sent_) return;
  join_sent_ = true;
  for (const net::NodeId node : device_nodes_) {
    endpoint_.send(node, make_join_message(config_.app_id));
  }
}

void GBoosterRuntime::on_manifest(net::NodeId src,
                                  std::span<const std::uint8_t> message) {
  const auto entries = parse_manifest_message(message);
  check(entries.has_value(), "malformed manifest message");
  const auto index = index_of(src);
  if (!index.has_value()) return;
  auto manifest = std::make_unique<compress::SharedManifest>();
  for (const compress::ManifestEntry& entry : *entries) manifest->add(entry);
  manifests_[*index] = std::move(manifest);
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant(
        "manifest_received", src, loop_.now(),
        {{"entries", static_cast<double>(manifests_[*index]->size())},
         {"payload_bytes",
          static_cast<double>(manifests_[*index]->payload_bytes())}});
  }
  if (join_pending_) {
    for (const auto& m : manifests_) {
      if (m == nullptr) return;  // still waiting on another device
    }
    finish_join();
  } else {
    // Late reply (after the deadline) or a hot-joined device's grant: render
    // streams use it from the next frame; the state intersection may become
    // valid again now that every device has answered.
    recompute_state_manifest();
  }
}

void GBoosterRuntime::finish_join() {
  if (!join_pending_) return;
  join_pending_ = false;
  recompute_state_manifest();
  for (const auto& m : manifests_) {
    if (m == nullptr) continue;
    stats_.manifest_entries = std::max<std::uint64_t>(
        stats_.manifest_entries, m->size());
    stats_.manifest_bytes =
        std::max<std::uint64_t>(stats_.manifest_bytes, m->payload_bytes());
  }
  if (join_hold_.empty()) return;
  stats_.manifest_wait_ms = (loop_.now() - join_hold_started_).ms();
  std::vector<wire::FrameCommands> held;
  held.swap(join_hold_);
  for (wire::FrameCommands& frame : held) {
    (void)on_frame(std::move(frame));
  }
}

void GBoosterRuntime::recompute_state_manifest() {
  state_manifest_valid_ = false;
  state_manifest_ = compress::SharedManifest();
  // Single-device sessions send no state multicasts; nothing to compute.
  if (!config_.shared_dedup || device_nodes_.size() <= 1) return;
  for (const auto& m : manifests_) {
    if (m == nullptr) return;  // a silent device forces inline state uploads
  }
  state_manifest_ = *manifests_[0];
  for (std::size_t j = 1; j < manifests_.size(); ++j) {
    state_manifest_.intersect_with(*manifests_[j]);
  }
  state_manifest_valid_ = true;
}

// --- failure handling -------------------------------------------------------

void GBoosterRuntime::heartbeat_tick() {
  // The endpoint may not be routed yet (runtime constructed before media
  // binding); probe once transmissions can actually flow.
  if (endpoint_.route() != nullptr) {
    for (std::size_t j = 0; j < device_nodes_.size(); ++j) {
      if (migration_dark_[j]) continue;  // disconnected mid cold-restart
      const std::uint64_t nonce = next_ping_nonce_++;
      pending_pings_[nonce] = PendingPing{j, loop_.now()};
      endpoint_.send_unreliable(device_nodes_[j], make_ping_message(nonce));
      schedule_after_guarded(config_.health.probe_timeout,
                           [this, nonce] { on_ping_timeout(nonce); });
    }
  }
  schedule_after_guarded(config_.health.probe_interval,
                       [this] { heartbeat_tick(); });
}

void GBoosterRuntime::on_ping_timeout(std::uint64_t nonce) {
  const auto it = pending_pings_.find(nonce);
  if (it == pending_pings_.end()) return;  // answered in time
  const std::size_t index = it->second.device_index;
  pending_pings_.erase(it);
  stats_.heartbeat_timeouts++;
  if (dispatcher_.record_failure(index, config_.health.failure_threshold)) {
    handle_device_death(index);
  }
}

void GBoosterRuntime::on_pong(std::uint64_t nonce) {
  const auto it = pending_pings_.find(nonce);
  if (it == pending_pings_.end()) return;  // already counted as a timeout
  const std::size_t index = it->second.device_index;
  pending_pings_.erase(it);
  note_device_alive(index);
}

void GBoosterRuntime::note_device_alive(std::size_t index) {
  if (dispatcher_.record_success(index)) {
    stats_.device_reintegrations++;
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      tracer_->instant("device_reintegrated", device_nodes_[index],
                       loop_.now());
    }
  }
  // A replica that missed state multicasts (abandoned toward it while it was
  // dead or partitioned) would rejoin with stale GL state: resync it before
  // Eq. 4 hands it frames again. Also retries a resync whose own message
  // was abandoned.
  if (needs_snapshot_[index] && dispatcher_.healthy(index)) {
    send_snapshot(index);
  }
}

void GBoosterRuntime::on_transport_abandon(net::NodeId stream,
                                           std::uint64_t message_id) {
  const auto snap_it = snapshot_msgs_.find({stream, message_id});
  if (snap_it != snapshot_msgs_.end()) {
    // The resync itself never arrived; retry on the device's next liveness
    // signal (pong or frame result).
    needs_snapshot_[snap_it->second] = true;
    snapshot_msgs_.erase(snap_it);
    return;
  }
  const auto it = msg_to_seq_.find({stream, message_id});
  const bool tracked = it != msg_to_seq_.end();
  const std::uint64_t sequence = tracked ? it->second : 0;
  if (tracked) msg_to_seq_.erase(it);

  if (stream == config_.state_group) {
    // The frame usually displayed long ago — the renderer acked its copy and
    // drew it — while the transport kept repairing the copies toward the
    // stragglers, so the in-flight table says nothing about who missed what.
    // Attribution instead comes from the transport: a multicast abandon
    // names the receivers that never acked all chunks — everyone else
    // delivered and applied the message.
    if (tracked) {
      const auto fit = in_flight_.find(sequence);
      if (fit != in_flight_.end()) fit->second.has_state_msg = false;
    }
    // When at least one replica is unaffected, resync just the stragglers
    // with a GL-state snapshot (their decode timelines poison themselves on
    // the sequence gap and quarantine until it lands) instead of restarting
    // the shared cache for the whole fleet.
    std::vector<std::size_t> missed;
    for (const net::NodeId node : endpoint_.last_abandoned_receivers()) {
      const auto idx = index_of(node);
      if (idx.has_value()) missed.push_back(*idx);
    }
    if (!missed.empty() && missed.size() < device_nodes_.size()) {
      for (const std::size_t idx : missed) {
        // An outage window abandons one state message per frame; the first
        // resync covers all of them at once (its mirror and GL state were
        // captured after every already-sent message), so skip abandons the
        // last snapshot already absorbed.
        if (message_id < snapshot_covers_ids_[idx]) continue;
        if (dispatcher_.healthy(idx)) {
          if (!snapshot_pending(idx)) send_snapshot(idx);
        } else {
          // Dead: the breaker's revival path resyncs it (note_device_alive).
          needs_snapshot_[idx] = true;
        }
      }
      stats_.scoped_state_recoveries++;
      return;
    }
    // Every replica missed it, or the loss cannot be attributed: restart
    // the shared cache under a new epoch so every mirror resets in
    // lockstep, and tell receivers not to wait on the lost sequence.
    // Unattributable losses of already-completed frames have no sequence to
    // floor — and a completed frame proves the renderer applied the
    // message, so a total miss is impossible there.
    if (!tracked) return;
    state_epoch_++;
    state_cache_ = compress::CommandCache();
    stats_.state_epoch_resets++;
    state_apply_floor_ = std::max(state_apply_floor_, sequence + 1);
    return;
  }
  // Re-entry from a cohort abandon below (or from handle_device_death's
  // stream sweep): the initiating call resets the mirror and re-dispatches
  // every affected frame at once; the map cleanup above is all that is left
  // to do per message.
  if (stream_abandon_in_progress_) return;

  const auto index = index_of(stream);
  if (!index.has_value()) return;

  // The abandoned message's records were inserted into the sender-side
  // mirror at encode time, but the device will never decode them — the
  // mirrors are desynced even if the device is alive and well (it may have
  // simply sat behind a transient partition). This holds even when the
  // frame itself is gone (the presenter's gap timeout reclaimed it while
  // the transport kept repairing its message) or was re-dispatched
  // elsewhere: the *stream's* device missed the records either way. The
  // next frame to it would reference records it never saw and hard-fail its
  // decode. Restart the pair under a new epoch, and never wait on the lost
  // sequence.
  InFlight* flight = nullptr;
  if (tracked) {
    const auto fit = in_flight_.find(sequence);
    if (fit != in_flight_.end() && !fit->second.local &&
        fit->second.device_index == *index) {
      flight = &fit->second;
      flight->has_render_msg = false;
    }
  }
  reset_render_mirror(*index);
  if (tracked) {
    apply_floors_[*index] = std::max(apply_floors_[*index], sequence + 1);
  }
  // Every other in-flight render message toward this device is poison now:
  // it was encoded after the lost message inserted records into the retired
  // mirror, so decoding it would reference records the device never saw.
  // Drop the whole cohort and re-dispatch it under the fresh epoch.
  std::vector<std::uint64_t> poisoned;
  for (auto& [other_sequence, other] : in_flight_) {
    if ((!tracked || other_sequence != sequence) && !other.local &&
        !other.shed && other.device_index == *index && other.has_render_msg) {
      other.has_render_msg = false;
      // The cohort's messages die with the stream sweep below; the device
      // must not hold its in-order apply cursor for them (a redispatched
      // copy replays past the cursor via its redispatch flag).
      apply_floors_[*index] =
          std::max(apply_floors_[*index], other_sequence + 1);
      poisoned.push_back(other_sequence);
    }
  }
  stream_abandon_in_progress_ = true;
  endpoint_.abandon_stream(stream);
  stream_abandon_in_progress_ = false;
  if (!config_.health.enabled) {
    // Monitoring off: no breaker to consult and no re-dispatch — the gap
    // timeout reclaims the frames.
    return;
  }
  // The transport exhausted its full retry budget toward this device —
  // decisive evidence on its own (one count for the whole cohort).
  if (dispatcher_.record_failure(*index, 1)) {
    handle_device_death(*index);  // re-dispatches the cohort in its sweep
  } else {
    if (flight != nullptr) redispatch_frame(sequence);
    for (const std::uint64_t other_sequence : poisoned) {
      redispatch_frame(other_sequence);
    }
  }
}

void GBoosterRuntime::reset_render_mirror(std::size_t index) {
  render_caches_[index] = std::make_unique<compress::CommandCache>();
  cache_epochs_[index]++;
  mirror_revs_[index] = 0;
  stats_.render_epoch_resets++;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("render_mirror_reset", device_nodes_[index], loop_.now(),
                     {{"epoch", static_cast<double>(cache_epochs_[index])}});
  }
}

void GBoosterRuntime::handle_device_death(std::size_t index) {
  stats_.device_failovers++;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("device_dead", device_nodes_[index], loop_.now());
  }
  // The device's cache mirror is now unreliable (it may never have decoded
  // the tail of the stream): restart the pair under a new epoch.
  reset_render_mirror(index);
  // Drop outstanding render traffic to the corpse; the abandon handler
  // re-entries only clean up their message mappings (the orphan sweep below
  // re-dispatches every stranded frame in one pass).
  stream_abandon_in_progress_ = true;
  endpoint_.abandon_stream(device_nodes_[index]);
  stream_abandon_in_progress_ = false;
  // Stop repairing state multicasts toward it too: a dead member's pending
  // acks would spend the whole outage on retransmissions it cannot hear and
  // hold the group stream floor back for everyone. From here until revival
  // it misses the state stream for real — heal it on revival with a
  // GL-state snapshot.
  endpoint_.forget_receiver(device_nodes_[index]);
  needs_snapshot_[index] = true;
  // Requests already fully delivered (or whose send is still queued behind
  // the packing core) have no outstanding message: sweep the leftovers.
  std::vector<std::uint64_t> orphans;
  for (const auto& [sequence, flight] : in_flight_) {
    // Shed frames already released their assignment; only live ones move.
    if (!flight.local && !flight.shed && flight.device_index == index) {
      orphans.push_back(sequence);
    }
  }
  for (const std::uint64_t sequence : orphans) redispatch_frame(sequence);
}

void GBoosterRuntime::redispatch_frame(std::uint64_t sequence) {
  InFlight& flight = in_flight_.at(sequence);
  const std::size_t old_index = flight.device_index;
  dispatcher_.on_abandoned(old_index, flight.workload);
  if (flight.has_render_msg) {
    msg_to_seq_.erase({device_nodes_[old_index], flight.render_msg_id});
    flight.has_render_msg = false;
  }
  // The old device will never see this sequence again; when it recovers it
  // must not wait for it (its state copy, if any, still flows separately).
  apply_floors_[old_index] =
      std::max(apply_floors_[old_index], sequence + 1);

  // A frame still waiting in the dispatch queue was never encoded: the pump
  // routes it (fresh render message to the new target, or local render) in
  // queue order, so its state-only multicast encodes against the shared
  // cache in sequence order.
  const bool queued = !flight.dispatched && !flight.local;
  if (dispatcher_.healthy_count() == 0) {
    if (config_.enable_local_fallback) {
      if (queued) {
        flight.local = true;  // the pump starts the render at pickup
      } else {
        render_locally(sequence);
      }
    } else if (queued) {
      // No fallback and nowhere to send: shed instead of letting the pump
      // encode a payload into the void. The assignment was released above.
      stats_.frames_shed_void++;
      mark_shed(sequence, flight, "void", /*release_assignment=*/false);
    }
    // Otherwise leave the frame in flight; the presenter's gap timeout
    // reclaims it.
    return;
  }
  const std::size_t target = dispatcher_.pick(flight.workload);
  dispatcher_.on_assigned(target, flight.workload);
  flight.device_index = target;
  if (queued) return;  // never sent anywhere: the pump dispatches normally
  stats_.frames_redispatched++;
  Bytes message = encode_render(sequence, flight, /*redispatch=*/true);
  flight.sent_bytes += message.size();
  charge_packing(message.size());
  schedule_payload_send(sequence, target, {}, std::move(message));
}

bool GBoosterRuntime::snapshot_pending(std::size_t index) const {
  // snapshot_msgs_ keeps acked entries around (only abandonment and
  // supersession erase them), so consult the transport for liveness.
  for (const auto& [key, idx] : snapshot_msgs_) {
    if (idx == index && endpoint_.is_outstanding(key.first, key.second)) {
      return true;
    }
  }
  return false;
}

void GBoosterRuntime::send_snapshot(std::size_t index) {
  needs_snapshot_[index] = false;
  snapshot_covers_ids_[index] = state_msgs_sent_;
  // At most one resync per device is tracked for retry; older entries for
  // this device are either acked (harmless) or superseded by this one.
  std::erase_if(snapshot_msgs_,
                [index](const auto& kv) { return kv.second == index; });
  SnapshotHeader header;
  // Every event-loop callback is a frame boundary: the shadow context holds
  // exactly the state of frames below next_sequence(), and the state cache
  // holds exactly the encodings of the state messages built for them — the
  // snapshot and its mirror are self-consistent by construction.
  header.sequence = recorder_->next_sequence();
  header.state_cache_epoch = state_epoch_;
  header.render_cache_epoch = cache_epochs_[index];
  const Bytes gl_state =
      gles::capture_gl_state(recorder_->shadow()).serialize();
  const Bytes mirror = state_cache_.serialize();
  Bytes message = make_snapshot_message(header, gl_state, mirror);

  // Charge the packing core for the serialization, but transmit immediately:
  // a deferred send could straddle an epoch reset and ship a stale mirror.
  charge_packing(message.size());
  stats_.snapshots_sent++;
  const net::NodeId node = device_nodes_[index];
  const std::uint64_t id = endpoint_.send(node, std::move(message));
  snapshot_msgs_[{node, id}] = index;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("snapshot_sent", node, loop_.now(),
                     {{"sequence", static_cast<double>(header.sequence)}});
  }
}

std::size_t GBoosterRuntime::add_service_device(const ServiceDeviceInfo& info) {
  check(!index_of(info.node).has_value(),
        "hot-join: service device node already present");
  const bool was_single = device_nodes_.size() == 1;
  const std::size_t index = dispatcher_.add_device(info);
  add_device_slot(info.node);
  stats_.devices_hot_joined++;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("device_hot_joined", info.node, loop_.now());
  }
  if (config_.shared_dedup) {
    // kJoin rides the newcomer's reliable stream ahead of the snapshot
    // below, so its session binds the shared store before it decodes
    // anything. The state intersection shrinks to invalid until the
    // newcomer's manifest arrives — state uploads go inline meanwhile, which
    // every replica can decode.
    if (join_sent_) {
      endpoint_.send(info.node, make_join_message(config_.app_id));
    }
    recompute_state_manifest();
  }
  // Bring the newcomer to the present: GL state, state-cache mirror, and
  // apply cursor all jump to the current sequence.
  send_snapshot(index);
  // Leaving single-device mode: state multicasts start with the next frame,
  // and the incumbent — which has only ever seen full render messages — must
  // be re-based onto that timeline too.
  if (was_single) send_snapshot(0);
  return index;
}

void GBoosterRuntime::migrate_service_device(std::size_t index,
                                             const ServiceDeviceInfo& target,
                                             const MigrationOptions& options) {
  check(index < device_nodes_.size(), "migrate: device index out of range");
  check(!index_of(target.node).has_value(),
        "migrate: target node already present");
  const net::NodeId old_node = device_nodes_[index];
  stats_.migrations++;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->instant("migration_begin", old_node, loop_.now(),
                     {{"to", static_cast<double>(target.node)},
                      {"cold", options.cold_restart ? 1.0 : 0.0}});
  }
  // Outstanding heartbeat probes raced the redirect; their timeouts must not
  // charge the slot's new occupant failures it never earned.
  std::erase_if(pending_pings_, [index](const auto& kv) {
    return kv.second.device_index == index;
  });
  if (options.cold_restart) {
    stats_.migration_cold_restarts++;
    cold_restart_device(index, target, options.reconnect_delay);
    return;
  }

  // --- drain: unhook in-flight render messages from the old stream --------
  // The frames stay in flight and the old device keeps rendering them (the
  // overlap that keeps the blackout near one frame interval); their results
  // arrive from a node that no longer maps to a slot and are accepted via
  // the stale-assignee path. The message mappings must go now, though: a
  // late abandon on the old stream would otherwise reset the *new* device's
  // mirror.
  for (auto& [sequence, flight] : in_flight_) {
    if (flight.local || flight.device_index != index || !flight.has_render_msg)
      continue;
    msg_to_seq_.erase({old_node, flight.render_msg_id});
    flight.has_render_msg = false;
  }

  // Proof invalidation (the §14 eviction bugfix): the old device's manifest
  // was granted under a lease the source runtime closes when it releases the
  // session — after that, capacity pressure may evict records the proofs
  // still cover, and a kSharedRef against one would dangle. No proof
  // survives the redirect; the target's kJoin reply re-grants from live
  // residency, and anything no longer resident ships inline (re-publishing
  // it for the sessions that follow).
  manifests_[index] = nullptr;
  if (config_.shared_dedup && join_sent_) {
    endpoint_.send(target.node, make_join_message(config_.app_id));
  }

  // --- re-base + redirect --------------------------------------------------
  // Fresh render mirror under a new epoch (the target starts empty). The
  // shared *state* cache and epoch are untouched — redirecting the endpoint
  // without a state-epoch reset is the point of the mirror transfer; the
  // other replicas never notice the migration.
  reset_render_mirror(index);
  device_nodes_[index] = target.node;
  dispatcher_.replace_device(index, target);
  if (config_.shared_dedup) recompute_state_manifest();
  // Snapshot transfer: shadow GL state + the state-cache mirror, captured at
  // the recorder's next sequence; install jumps the target's apply cursor
  // there, and state multicasts (which include the target from the next
  // frame) decode contiguously from that floor.
  send_snapshot(index);
  // Repairs toward the old device continue through the drain window so the
  // in-flight work it holds actually completes, then stop: a departed node's
  // pending acks would hold the state-group floor for everyone, and its RTO
  // state must not leak to whoever recycles the id.
  schedule_after_guarded(options.drain_timeout, [this, old_node] {
    if (!index_of(old_node).has_value()) endpoint_.forget_receiver(old_node);
  });
}

void GBoosterRuntime::cold_restart_device(std::size_t index,
                                          ServiceDeviceInfo target,
                                          SimTime reconnect_delay) {
  const net::NodeId old_node = device_nodes_[index];
  // From-scratch baseline: the old endpoint vanishes with everything it
  // holds, and every repair toward it stops now.
  migration_dark_[index] = 1;
  stream_abandon_in_progress_ = true;
  endpoint_.abandon_stream(old_node);
  stream_abandon_in_progress_ = false;
  endpoint_.forget_receiver(old_node);
  // The frames already in flight toward the vanished endpoint die with it.
  // The presenter's gap timeout cannot be trusted to reclaim them: it only
  // notices a hole once some *later* frame completes, and when every pending
  // frame sat on the dead slot (the common single-device case) none ever
  // will — the issue window never frees and the session wedges. Count the
  // losses and release the bookkeeping here instead.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    InFlight& flight = it->second;
    if (flight.local || flight.device_index != index) {
      ++it;
      continue;
    }
    erase_msg_entries(flight);
    if (!flight.shed) {
      dispatcher_.on_abandoned(flight.device_index, flight.workload);
      stats_.frames_dropped++;
      if (!flight.dispatched && device_nodes_.size() > 1) {
        state_apply_floor_ = std::max(state_apply_floor_, it->first + 1);
      }
    }
    // Marked shed so the presenter advances past the hole without waiting
    // out the gap timeout (the loss was already counted above).
    shed_sequences_.insert(it->first);
    it = in_flight_.erase(it);
  }
  schedule_after_guarded(seconds(0.0), [this] { present_in_order(); });
  // With no mirror transfer to lean on, the reconnecting device can only
  // decode a state stream that starts over: fleet-wide epoch reset (this is
  // exactly the disruption live migration avoids).
  state_epoch_++;
  state_cache_ = compress::CommandCache();
  stats_.state_epoch_resets++;
  manifests_[index] = nullptr;
  reset_render_mirror(index);
  if (config_.shared_dedup) recompute_state_manifest();
  // The slot is dark until the reconnect completes.
  (void)dispatcher_.record_failure(index, /*threshold=*/1);
  schedule_after_guarded(reconnect_delay, [this, index,
                                         target = std::move(target)] {
    std::erase_if(pending_pings_, [index](const auto& kv) {
      return kv.second.device_index == index;
    });
    migration_dark_[index] = 0;
    device_nodes_[index] = target.node;
    dispatcher_.replace_device(index, target);
    if (config_.shared_dedup) {
      if (join_sent_) {
        endpoint_.send(target.node, make_join_message(config_.app_id));
      }
      recompute_state_manifest();
    }
    send_snapshot(index);
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      tracer_->instant("migration_reconnected", target.node, loop_.now());
    }
  });
}

void GBoosterRuntime::render_locally(std::uint64_t sequence) {
  InFlight& flight = in_flight_.at(sequence);
  flight.local = true;
  stats_.frames_rendered_locally++;
  // Single-device sessions send no state copies, so a locally-rendered
  // sequence is a permanent hole in the device's stream: float the floor.
  if (device_nodes_.size() == 1) {
    apply_floors_[0] = std::max(apply_floors_[0], sequence + 1);
  }

  const double render_s = flight.workload / config_.local_capability_pps;
  stats_.local_render_seconds += render_s;
  const SimTime start = std::max(loop_.now(), local_busy_until_);
  local_busy_until_ = start + seconds(render_s);
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->span(runtime::Stage::kLocalRender, endpoint_.id(), sequence,
                  start, local_busy_until_);
  }

  schedule_at_guarded(local_busy_until_, [this, sequence] {
    const auto it = in_flight_.find(sequence);
    if (it == in_flight_.end()) return;  // reclaimed by the gap timeout
    InFlight flight = std::move(it->second);
    in_flight_.erase(it);
    erase_msg_entries(flight);
    if (local_gles_ != nullptr) {
      try {
        // Frames that were offloaded first already fed their state records
        // to the replica at issue time; replaying them again would re-run
        // non-idempotent records (glGen*), so only the draws remain.
        wire::replay_frame(flight.state_applied_locally
                               ? subset(flight.records, /*state=*/false)
                               : flight.records,
                           *local_gles_);
      } catch (const Error&) {
        // Replica divergence costs pixels, not liveness.
      }
    }
    ReadyFrame ready;
    ready.issued = flight.issued;
    ready.displayable_at = loop_.now();
    ready_.emplace(sequence, std::move(ready));
    present_in_order();
  });
}

// --- results ----------------------------------------------------------------

void GBoosterRuntime::on_message(net::NodeId src, net::NodeId /*stream*/,
                                 Bytes message) {
  // A cold-restarting slot's old device is disconnected: late frame results
  // and pongs from it must neither display nor revive the breaker (they
  // would mask the very blackout the baseline measures).
  if (const auto src_index = index_of(src);
      src_index.has_value() && migration_dark_[*src_index]) {
    return;
  }
  const MsgKind kind = peek_kind(message);
  if (kind == MsgKind::kPong) {
    const auto nonce = parse_pong_message(message);
    if (nonce.has_value()) on_pong(*nonce);
    return;
  }
  if (kind == MsgKind::kManifest) {
    on_manifest(src, message);
    return;
  }
  if (kind != MsgKind::kFrame) return;
  auto parsed = parse_frame_message(message);
  check(parsed.has_value(), "malformed frame result");
  const std::uint64_t sequence = parsed->header.sequence;
  const auto it = in_flight_.find(sequence);
  if (it == in_flight_.end()) return;  // duplicate
  InFlight flight = std::move(it->second);
  in_flight_.erase(it);
  erase_msg_entries(flight);

  const auto src_index = index_of(src);
  if (src_index.has_value()) note_device_alive(*src_index);
  if (!flight.local) {
    if (parsed->header.shed) {
      // Admission control cancelled the GPU pass: release the assignment
      // without feeding the dispatcher a completion time it never earned.
      dispatcher_.on_abandoned(flight.device_index, flight.workload);
    } else if (src_index.has_value() && *src_index == flight.device_index) {
      dispatcher_.on_completed(flight.device_index, flight.workload,
                               loop_.now() - flight.issued);
    } else {
      // A stale assignee delivered after the frame was re-routed: use the
      // result, but release the current assignee's phantom workload (its
      // own result will be ignored as a duplicate).
      dispatcher_.on_abandoned(flight.device_index, flight.workload);
    }
  }
  stats_.bytes_received += parsed->header.nominal_bytes;
  if (!parsed->header.shed && parsed->header.nominal_bytes > 0) {
    // Downlink frame cost at its encode quality: prices the bitrate ladder.
    governor_.on_frame_bytes(parsed->header.nominal_bytes, flight.quality);
  }

  if (parsed->header.shed) {
    stats_.frames_shed_service++;
    // Content, when present, belonged to a victim the service had already
    // encoded: feed it to the decoder so the codec reference chain stays
    // intact, but never display it.
    if (parsed->header.has_content) {
      (void)decoder_.decode(parsed->encoded_content);
    }
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      tracer_->end(runtime::Stage::kDownlink, sequence, loop_.now());
      tracer_->instant("frame_shed", endpoint_.id(), loop_.now(),
                       {{"sequence", static_cast<double>(sequence)},
                        {"cause_service", 1.0}});
    }
    shed_sequences_.insert(sequence);
    present_in_order();
    return;
  }

  // Decode cost on the user device (Turbo decode of the nominal-resolution
  // stream), charged before the frame becomes displayable.
  const double decode_s = static_cast<double>(config_.nominal_width) *
                          config_.nominal_height / (config_.decode_mpps * 1e6);
  stats_.decode_seconds += decode_s;
  if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
    tracer_->end(runtime::Stage::kDownlink, sequence, loop_.now());
    tracer_->span(runtime::Stage::kDecode, endpoint_.id(), sequence,
                  loop_.now(), loop_.now() + seconds(decode_s));
  }

  // Eq. 5's t_p estimate for this frame: everything offloading adds on top
  // of rendering itself.
  const double bandwidth_bps =
      config_.link_bandwidth_bps ? config_.link_bandwidth_bps() : 150e6;
  const double uplink_s =
      static_cast<double>(flight.sent_bytes) * 8.0 / bandwidth_bps + 0.001;
  const double downlink_s =
      static_cast<double>(parsed->header.nominal_bytes) * 8.0 / bandwidth_bps +
      0.001;
  const double encode_s = static_cast<double>(config_.nominal_width) *
                          config_.nominal_height /
                          (config_.service_encode_mpps * 1e6);
  stats_.t_p_ms_sum +=
      (flight.serialize_s + uplink_s + encode_s + downlink_s + decode_s) *
      1000.0;

  ReadyFrame ready;
  ready.issued = flight.issued;
  ready.quality = flight.quality;
  ready.displayable_at = loop_.now() + seconds(decode_s);
  if (parsed->header.has_content) {
    auto image = decoder_.decode(parsed->encoded_content);
    if (image) ready.content = std::move(*image);
  }
  ready_.emplace(sequence, std::move(ready));

  schedule_after_guarded(seconds(decode_s), [this] { present_in_order(); });
}

void GBoosterRuntime::present_in_order() {
  // §VI-C: requests may complete out of order across devices; results are
  // displayed strictly by sequence number.
  while (true) {
    // Sequences shed by the governor or the service are deliberate drops,
    // not display gaps: advance past them without waiting out the timeout.
    shed_sequences_.erase(shed_sequences_.begin(),
                          shed_sequences_.lower_bound(next_display_sequence_));
    while (shed_sequences_.erase(next_display_sequence_) != 0) {
      ++next_display_sequence_;
    }
    const auto it = ready_.find(next_display_sequence_);
    if (it == ready_.end()) {
      // Liveness: if the expected result never arrives (its message was
      // abandoned by the transport), later completed frames must not wait
      // forever. Skip the hole once it is older than the gap timeout.
      if (!ready_.empty()) {
        const SimTime oldest = ready_.begin()->second.displayable_at;
        if (loop_.now() - oldest >= config_.display_gap_timeout) {
          const std::uint64_t gap_end = ready_.begin()->first;
          std::uint64_t dropped = gap_end - next_display_sequence_;
          // Shed sequences inside the gap were counted at shed time; they
          // are not transport losses.
          for (auto shed = shed_sequences_.begin();
               shed != shed_sequences_.end() && *shed < gap_end;) {
            --dropped;
            shed = shed_sequences_.erase(shed);
          }
          stats_.frames_dropped += dropped;
          // Release the dispatcher bookkeeping of the lost requests so their
          // phantom workload stops biasing Eq. 4.
          for (auto lost = in_flight_.begin();
               lost != in_flight_.end() && lost->first < gap_end;) {
            InFlight& stale = lost->second;
            if (!stale.local && !stale.shed) {
              dispatcher_.on_abandoned(stale.device_index, stale.workload);
              // A frame reclaimed before the pump dispatched it never
              // produced a state message: replicas must not wait for its
              // sequence.
              if (!stale.dispatched && device_nodes_.size() > 1) {
                state_apply_floor_ =
                    std::max(state_apply_floor_, lost->first + 1);
              }
            }
            erase_msg_entries(stale);
            lost = in_flight_.erase(lost);
          }
          next_display_sequence_ = gap_end;
          continue;
        }
        schedule_at_guarded(oldest + config_.display_gap_timeout,
                          [this] { present_in_order(); });
      }
      return;
    }
    if (it->second.displayable_at > loop_.now()) {
      schedule_at_guarded(it->second.displayable_at,
                        [this] { present_in_order(); });
      return;
    }
    ReadyFrame frame = std::move(it->second);
    ready_.erase(it);
    const std::uint64_t sequence = next_display_sequence_++;
    stats_.frames_displayed++;
    if (runtime::kTracingCompiledIn && tracer_ != nullptr) {
      // Present covers the in-order wait: from the moment the frame became
      // displayable until its predecessors let it reach the screen.
      tracer_->span(runtime::Stage::kPresent, endpoint_.id(), sequence,
                    frame.displayable_at, loop_.now());
    }
    if (display_) {
      display_(sequence, loop_.now() - frame.issued, frame.content);
    }
    governor_.on_frame_displayed((loop_.now() - frame.issued).ms());
    if (frame.quality > 0) {
      stats_.quality_sum += static_cast<std::uint64_t>(frame.quality);
      stats_.quality_samples++;
    }
  }
}

}  // namespace gb::core
