// GBoosterRuntime — the user-device side of the system (Fig. 2).
//
// It owns the wrapper library (a wire::CommandRecorder implementing the full
// GLES API), installs it into the dynamic-linker model under LD_PRELOAD so
// unmodified applications bind to it (§IV-A), and processes each finished
// frame:
//
//   1. profile the frame (workload r, command/texture counts for §V-B);
//   2. pick a service device via Eq. 4 (§VI-C);
//   3. multi-device: multicast the frame's state-mutating records to every
//      replica (§VI-B) and unicast the complete frame to the renderer;
//      single-device: just send the frame;
//   4. all payloads go through the LRU command cache + LZ4 (§V-A) and the
//      reliable-UDP endpoint, whose route the interface switcher manages;
//   5. returned frames are decoded and displayed in sequence order (§VI-C),
//      with the modified SwapBuffer semantics (§VI-A) allowing up to
//      `max_pending_requests` frames in flight.
//
// Every session takes one path through steps 2–4: the device is picked at
// issue, and the packing core encodes the frame when it dequeues it
// (DESIGN.md §11). The QoS governor decides what the queue sheds.
//
// Failure handling: a health monitor heartbeats every service device over
// the transport's unreliable datagram path; consecutive probe losses trip a
// circuit breaker that removes the device from Eq. 4's argmin. In-flight
// requests held by a dead device are re-encoded and re-dispatched to the
// best healthy device (the original frame commands are retained for exactly
// this), and when no healthy device remains the runtime renders frames on
// the local GPU through the genuine GLES driver it bound before installing
// the wrapper (§IV-A linker hook), switching back once a probe succeeds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/turbo_codec.h"
#include "compress/command_cache.h"
#include "core/dispatcher.h"
#include "core/offload_protocol.h"
#include "core/qos_governor.h"
#include "hooking/dynamic_linker.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "runtime/trace.h"
#include "wire/recorder.h"

namespace gb::core {

// Heartbeat-driven failure detector (circuit breaker) for service devices.
// The transport's own abandonment signal also feeds the breaker, but at a
// ~25 s horizon (50 retries, backoff capped at rto_max in adaptive mode);
// heartbeats are the fast path.
struct HealthMonitorConfig {
  bool enabled = true;
  // Probe cadence per device. Dead devices keep being probed at the same
  // cadence — that is the breaker's half-open state; a reply reintegrates.
  SimTime probe_interval = ms(250);
  // A probe unanswered this long counts as one failure.
  SimTime probe_timeout = ms(500);
  // Consecutive failures before the device is declared dead. Frame results
  // and pongs both reset the count.
  int failure_threshold = 3;
};

struct GBoosterConfig {
  int nominal_width = 600;
  int nominal_height = 480;
  // §VI-A: rewritten SwapBuffer returns immediately; up to this many
  // rendering requests may be buffered in flight. 1 reproduces the stock
  // blocking behaviour. The cap is deliberately generous: generation is
  // CPU-bound, so the *observed* depth stays around 3 — the paper's
  // "internal buffer possesses at most 3 requests most of the time".
  int max_pending_requests = 6;
  // Multicast group id for state replication.
  net::NodeId state_group = 0xff00;
  // User-device CPU throughput constants for the offload intermediate steps
  // (serialize+compress on send, image decode on receive). These feed both
  // pipeline latency and the §VII-G CPU-overhead accounting.
  double serialize_throughput_bps = 1.2e9;
  double decode_mpps = 140.0;  // Turbo decode is ~3x cheaper than encode
  // Estimate inputs for Eq. 5's t_p (the offload intermediate time): the
  // service devices' Turbo encode rate and a probe for the current link
  // bandwidth (wired to the interface switcher's active medium).
  double service_encode_mpps = 90.0;
  std::function<double()> link_bandwidth_bps;
  // Urgency of this user's rendering requests when sharing service devices
  // with other users (§VIII); lower = more time-critical.
  int request_priority = 0;
  // In-order display (§VI-C) must not deadlock if a frame result is lost for
  // good (transport abandoned after max retries): when the next-expected
  // sequence has been missing this long while later results wait, it is
  // declared dropped and the stream resumes.
  SimTime display_gap_timeout = seconds(2.0);
  // Request-assignment policy across service devices (Eq. 4 by default;
  // the alternatives exist for the scheduling ablation).
  DispatchPolicy dispatch_policy = DispatchPolicy::kEq4;
  // Failure detection (heartbeats + circuit breaker).
  HealthMonitorConfig health;
  // When every service device is dead, render on the local GPU instead of
  // stalling until the display gap timeout drops frames.
  bool enable_local_fallback = true;
  // Effective fillrate of the local GPU for fallback frames (pixels/s);
  // sessions wire this to the user device's GPU profile.
  double local_capability_pps = 4.0e8;
  // Optional pipeline tracer (DESIGN.md §9): per-frame stage spans, dispatch
  // decisions, breaker transitions. Null = tracing off (one pointer compare
  // per site). Must outlive the runtime.
  runtime::Tracer* tracer = nullptr;
  // Closed-loop overload control (DESIGN.md §11). Enabled, an AIMD governor
  // shrinks the pending window, sheds queued frames before they ever touch
  // the cache mirrors, and trades codec quality for latency. Disabled (the
  // default), it is the null policy: full window, no sheds, service-default
  // codec settings.
  QosGovernorConfig qos;
  // --- cross-session shared-store dedup (DESIGN.md §14) --------------------
  // Announce `app_id` to every service device at session start (kJoin) and
  // encode against the returned shared-store manifests: records the service
  // provably holds from earlier sessions of the same app ship as kSharedRef
  // instead of inline uploads. Off (the default) reproduces today's wire
  // byte-for-byte.
  bool shared_dedup = false;
  std::uint64_t app_id = 0;
  // Frames issued before the manifests arrive are held (and replayed through
  // the normal path once they do) so the cold-start upload can use shared
  // refs; after this deadline the session proceeds with whatever manifests
  // came back (missing ones mean inline uploads, never a stall).
  SimTime manifest_wait = ms(250);
  // Delay before the join handshake is sent; multiuser harnesses stagger
  // session starts with this so later sessions join against a store the
  // earlier ones already populated.
  SimTime join_delay = {};
};

// How migrate_service_device() moves the session's slot to a new physical
// device (DESIGN.md §15).
struct MigrationOptions {
  // false (default): live snapshot migration — the old device drains its
  // in-flight work while the target is brought current with a GL-state
  // snapshot + state-cache mirror transfer; the shared state epoch is NOT
  // reset, so the other replicas never notice. true: the disconnect/
  // reconnect-from-scratch baseline the A/B benches against — the old
  // stream is abandoned outright (its in-flight frames are lost to the gap
  // timeout), the state epoch resets fleet-wide, and the slot stays dark
  // for reconnect_delay before the target comes up cold.
  bool cold_restart = false;
  SimTime reconnect_delay = ms(250);
  // Live mode: how long the old device keeps being repaired toward after
  // the redirect (it is still finishing the drained in-flight work). After
  // this, forget_receiver() drops its pending acks and RTO state.
  SimTime drain_timeout = ms(500);
};

struct GBoosterStats {
  std::uint64_t frames_offloaded = 0;
  std::uint64_t frames_displayed = 0;
  std::uint64_t state_messages = 0;
  std::uint64_t bytes_sent = 0;      // post-compression payload bytes
  std::uint64_t bytes_received = 0;  // encoded frame bytes
  double serialize_seconds = 0.0;    // user-device CPU spent packing
  double decode_seconds = 0.0;       // user-device CPU spent decoding
  // Sum over displayed frames of Eq. 5's t_p (ms): serialize + uplink +
  // encode + downlink + decode — the intermediate steps offloading adds.
  double t_p_ms_sum = 0.0;
  compress::CacheStats render_cache;
  compress::CacheStats state_cache;
  // Pending-request depth observed at each frame issue (§VII-D's buffer
  // occupancy study): sum / samples = average, plus the maximum seen.
  std::uint64_t pending_depth_sum = 0;
  std::uint64_t pending_depth_samples = 0;
  std::uint64_t pending_depth_max = 0;
  // Times the §VI-A swap-buffer gate turned the application away (window
  // full, nothing sheddable): the stall pressure the app actually felt.
  std::uint64_t issue_stalls = 0;
  // Frames abandoned by the in-order presenter after display_gap_timeout.
  std::uint64_t frames_dropped = 0;
  // --- overload control (DESIGN.md §11) ------------------------------------
  // Shed by the governor, by cause — distinguishable from `frames_dropped`
  // (reclaimed by the transport/gap machinery) in SessionMetrics:
  std::uint64_t frames_shed_window = 0;    // keep-latest: window full
  std::uint64_t frames_shed_deadline = 0;  // stale at dispatch pickup
  std::uint64_t frames_shed_void = 0;      // all devices dead, no fallback
  std::uint64_t frames_shed_service = 0;   // service admission control
  // Delivered encoder quality, summed over displayed frames that carried a
  // governor override (mean = quality_sum / quality_samples).
  std::uint64_t quality_sum = 0;
  std::uint64_t quality_samples = 0;
  // --- failure handling ----------------------------------------------------
  std::uint64_t frames_redispatched = 0;      // re-sent after device death
  std::uint64_t frames_rendered_locally = 0;  // fallback path
  double local_render_seconds = 0.0;          // local GPU busy time
  std::uint64_t device_failovers = 0;         // healthy -> dead transitions
  std::uint64_t device_reintegrations = 0;    // dead -> healthy transitions
  std::uint64_t heartbeat_timeouts = 0;
  std::uint64_t state_epoch_resets = 0;   // shared state cache restarts
  std::uint64_t render_epoch_resets = 0;  // per-device cache mirror restarts
  // --- snapshot resync (DESIGN.md §10) ------------------------------------
  std::uint64_t snapshots_sent = 0;  // GL-state checkpoints shipped
  // State-multicast abandons attributed to specific stragglers and handled
  // with a snapshot instead of a fleet-wide epoch reset.
  std::uint64_t scoped_state_recoveries = 0;
  std::uint64_t devices_hot_joined = 0;  // devices added mid-session
  // --- fleet migration (DESIGN.md §15) -------------------------------------
  std::uint64_t migrations = 0;               // migrate_service_device calls
  std::uint64_t migration_cold_restarts = 0;  // reconnect-from-scratch mode
  // --- shared-store dedup (DESIGN.md §14) ----------------------------------
  // Largest manifest granted by any device, and the record payload bytes it
  // covers (bytes this session never has to upload). Shared-reference hit
  // counts live in render_cache/state_cache.shared_hits.
  std::uint64_t manifest_entries = 0;
  std::uint64_t manifest_bytes = 0;
  // Frames held at session start waiting for the join handshake, and how
  // long the hold lasted.
  std::uint64_t frames_held_for_manifest = 0;
  double manifest_wait_ms = 0.0;
};

class GBoosterRuntime {
 public:
  // `endpoint` must outlive the runtime and already be bound to its media;
  // `devices` lists the service devices (Eq. 4 inputs + node addresses).
  // The runtime installs the endpoint's abandon handler; the owner routes
  // incoming messages to on_message().
  GBoosterRuntime(EventLoop& loop, GBoosterConfig config,
                  net::ReliableEndpoint& endpoint,
                  std::vector<ServiceDeviceInfo> devices);

  // Registers the wrapper library with the linker and sets LD_PRELOAD, the
  // §IV-A injection. Before the wrapper starts shadowing, the genuine GLES
  // driver is bound through the same linker — the handle the local-render
  // fallback draws through.
  void install(hooking::DynamicLinker& linker,
               const std::string& soname = "libgbooster.so");

  // The wrapper itself (for direct wiring in tests).
  [[nodiscard]] gles::GlesApi& wrapper() { return *recorder_; }
  [[nodiscard]] const wire::CommandRecorder& recorder() const {
    return *recorder_;
  }

  // §VI-A flow control: may the application issue another frame right now?
  // The all-dead/no-fallback case always admits (frames are shed at the
  // head instead of flooding a dead device's stream), and with the QoS
  // governor on, a full window still admits a frame when an older
  // undispatched one can be shed in its place (keep-latest). Non-const:
  // refused issues are counted as stalls.
  [[nodiscard]] bool can_issue_frame();
  [[nodiscard]] std::size_t pending_requests() const {
    return in_flight_.size();
  }
  // In-flight frames not already shed (shed frames linger only until their
  // state-only copy leaves the dispatch queue).
  [[nodiscard]] std::size_t active_in_flight() const;
  // The null policy when config.qos.enabled is false.
  [[nodiscard]] const QosGovernor& governor() const { return governor_; }

  // Feeds the latest predicted aggregate deliverable capacity (bytes/sec,
  // from the kMultipath switcher) into the governor's proactive bitrate
  // ladder. No-op under the null policy.
  void note_capacity_forecast(double bytes_per_sec) {
    governor_.on_capacity_forecast(bytes_per_sec);
  }

  // Fired when a frame reaches the screen: sequence, issue->display latency,
  // and the decoded image (empty in analytic mode).
  using DisplayFn =
      std::function<void(std::uint64_t sequence, SimTime latency,
                         const Image& frame)>;
  void set_display_handler(DisplayFn handler) {
    display_ = std::move(handler);
  }

  // Overrides the per-frame GPU workload estimate (Eq. 4's r). When unset,
  // the recorder's own profile estimate is used.
  void set_workload_override(std::function<double()> fn) {
    workload_override_ = std::move(fn);
  }

  [[nodiscard]] const GBoosterConfig& config() const { return config_; }
  [[nodiscard]] const GBoosterStats& stats() const { return stats_; }
  [[nodiscard]] Dispatcher& dispatcher() { return dispatcher_; }
  // §VII-G: wrapper memory overhead (shadow context + queues).
  [[nodiscard]] std::size_t memory_overhead_bytes() const;

  // Must be called by the owner to route incoming messages here (frame
  // results and heartbeat pongs).
  void on_message(net::NodeId src, net::NodeId stream, Bytes message);

  // Hot-join (DESIGN.md §10): accepts a new service device mid-session. The
  // newcomer is brought to the current sequence with a GL-state snapshot and
  // immediately becomes eligible for dispatch; state multicasts include it
  // from the next frame on. The caller must have joined the device's radio
  // to the state multicast group first. Returns the device's index.
  std::size_t add_service_device(const ServiceDeviceInfo& info);

  // Live session migration (DESIGN.md §15): the service device at `index`
  // is replaced by `target` — drain (in-flight work finishes on the old
  // device and its results still display), GL-state snapshot + state-cache
  // mirror transfer to the target, transport redirect without a state-epoch
  // reset. Any manifest proofs granted by the old device are invalidated
  // (its lease closes when the source runtime releases the session, after
  // which eviction may drop records the proofs cover); the target's kJoin
  // reply re-grants from live residency. The caller must have joined the
  // target's radio to the state multicast group (multi-device sessions) and
  // owns releasing the session on the source runtime. With
  // options.cold_restart, runs the disconnect/reconnect baseline instead.
  void migrate_service_device(std::size_t index,
                              const ServiceDeviceInfo& target,
                              const MigrationOptions& options = {});

  // Registers this runtime's probes with an invariant auditor under
  // `component`: pending-table bounds against the configured window,
  // sequence/epoch monotonicity, and presenter gap accounting (every issued
  // frame is displayed, dropped, shed, rendered locally, or still pending).
  // `frame_rate_hint_hz` (the caller's issue rate, 0 = unknown) widens the
  // presenter-side table bounds: while the display cursor stalls on a gap —
  // legitimately up to display_gap_timeout, e.g. across a device outage —
  // shed markers and completed frames accumulate at the *issue rate*, so
  // those tables are bounded by rate x stall, not by the pending window.
  void register_invariant_probes(runtime::InvariantAuditor& auditor,
                                 const std::string& component,
                                 double frame_rate_hint_hz = 0.0) const;

 private:
  // Guarded scheduling: the runtime is destroyed mid-run under session
  // churn, and a pending event firing into freed memory is exactly the
  // lifetime bug ASan soak runs exist to catch. Every internal event goes
  // through these wrappers; when the alive token dies with the runtime, the
  // already-queued closures become no-ops.
  EventLoop::EventId schedule_after_guarded(SimTime delay,
                                            std::function<void()> fn);
  EventLoop::EventId schedule_at_guarded(SimTime at, std::function<void()> fn);
  // Appends the per-device tables' entries for a new service device.
  void add_device_slot(net::NodeId node);

  struct InFlight {
    SimTime issued;
    std::size_t device_index = 0;
    double workload = 0.0;
    std::size_t sent_bytes = 0;
    double serialize_s = 0.0;
    bool local = false;  // being rendered by the fallback path
    // Whether this frame's state records have been replayed into the local
    // shadow replica (done at issue for offloaded frames; guards the
    // fallback path against applying them twice).
    bool state_applied_locally = false;
    // Retained so the frame can be re-encoded for another device (or the
    // local GPU) if its renderer dies.
    wire::FrameCommands records;
    // Transport message ids of this frame's payloads, for mapping abandon
    // callbacks back to sequences.
    bool has_render_msg = false;
    std::uint64_t render_msg_id = 0;
    bool has_state_msg = false;
    std::uint64_t state_msg_id = 0;
    // Render request encoded (encode_render) and handed to the transport.
    bool dispatched = false;
    // Shed before dispatch (governor or void); only its state-only copy
    // (multi-device) still flows, to keep the state stream contiguous.
    bool shed = false;
    // Encoder quality override this frame was dispatched with (0 = none).
    int quality = 0;
  };

  // The recorder's swap hook: holds the frame for the join handshake, or
  // assigns it a device and queues it for the packing core.
  bool on_frame(wire::FrameCommands frame);
  // Deferred-encode dispatch: frames queue at issue and are encoded against
  // the cache mirrors only when the packing core picks them up, so a shed
  // frame never leaves a mirror-desyncing hole.
  void schedule_pump();
  void pump_dispatch_queue();
  // Charges the packing core for serializing and compressing `bytes` (they
  // leave the user device at cpu_busy_until_), counts them as sent, and
  // returns the serialize time.
  double charge_packing(std::size_t bytes);
  // Encodes the frame's render request against its assigned device's cache
  // mirror and marks it dispatched (a first dispatch counts as offloaded).
  Bytes encode_render(std::uint64_t sequence, InFlight& flight,
                      bool redispatch);
  // The `encode` trace instant of one packed frame: cache and LZ4 outcome
  // since the given cache-stat snapshots.
  void trace_encode(std::uint64_t sequence,
                    const compress::CacheStats& render_before,
                    const compress::CacheStats& state_before,
                    std::size_t wire_bytes);
  // Marks an undispatched frame shed: releases its dispatcher assignment
  // (unless the caller already did), floats its render-stream floor, and
  // tells the presenter to skip it.
  void mark_shed(std::uint64_t sequence, InFlight& flight, const char* cause,
                 bool release_assignment = true);
  // One governor control window: sample, decide, re-arm.
  void qos_tick();
  void trace_dispatch(std::uint64_t sequence, double workload,
                      std::size_t device_index);
  // Sends the (already encoded) payloads of one frame once the packing core
  // frees up, with the route and epoch guards a first dispatch and a
  // re-dispatch share.
  void schedule_payload_send(std::uint64_t sequence, std::size_t device_index,
                             Bytes state_message, Bytes render_message);
  void present_in_order();
  void heartbeat_tick();
  void on_ping_timeout(std::uint64_t nonce);
  void on_pong(std::uint64_t nonce);
  void on_transport_abandon(net::NodeId stream, std::uint64_t message_id);
  void note_device_alive(std::size_t index);
  void handle_device_death(std::size_t index);
  // Restarts the (sender, receiver) cache mirror pair of a device under a
  // new epoch — required whenever an encoded message will never be decoded.
  void reset_render_mirror(std::size_t index);
  void redispatch_frame(std::uint64_t sequence);
  void render_locally(std::uint64_t sequence);
  // Ships a full GL-state checkpoint (shadow context + state-cache mirror)
  // to one device, re-basing its replica at the recorder's next sequence.
  void send_snapshot(std::size_t index);
  [[nodiscard]] bool snapshot_pending(std::size_t index) const;
  // Cold half of migrate_service_device: tear the old stream down, go dark
  // for reconnect_delay, then bring `target` up from scratch.
  void cold_restart_device(std::size_t index, ServiceDeviceInfo target,
                           SimTime reconnect_delay);
  void erase_msg_entries(const InFlight& flight);
  [[nodiscard]] std::optional<std::size_t> index_of(net::NodeId node) const;
  // --- shared-store dedup (DESIGN.md §14) ----------------------------------
  // Sends kJoin on every device stream (retrying until the endpoint is
  // routed); the manifest replies (or the manifest_wait deadline) release
  // the held frames via finish_join().
  void join_tick();
  void finish_join();
  void on_manifest(net::NodeId src, std::span<const std::uint8_t> message);
  // State multicasts are decoded by every replica, so only the intersection
  // of all device manifests is safe to reference; recomputed whenever the
  // device set or a manifest changes (invalid until every device replied).
  void recompute_state_manifest();
  [[nodiscard]] const compress::SharedManifest* device_manifest(
      std::size_t index) const {
    return manifests_[index].get();
  }
  [[nodiscard]] const compress::SharedManifest* state_manifest() const {
    return state_manifest_valid_ ? &state_manifest_ : nullptr;
  }

  EventLoop& loop_;
  GBoosterConfig config_;
  net::ReliableEndpoint& endpoint_;
  Dispatcher dispatcher_;
  std::vector<net::NodeId> device_nodes_;
  // Slots mid cold-restart migration (DESIGN.md §15): the departed device is
  // modeled as disconnected — everything it sends (late frame results,
  // pongs) is dropped and it is not probed — until the reconnect completes
  // and the slot points at the target. Live migration never sets this: the
  // old device's drain-window results are the point.
  std::vector<char> migration_dark_;
  std::unique_ptr<wire::CommandRecorder> recorder_;

  compress::CommandCache state_cache_;
  std::vector<std::unique_ptr<compress::CommandCache>> render_caches_;
  // Cache generations, bumped with each sender-side cache reset so the
  // receiving mirror restarts in lockstep (see RenderRequestHeader).
  std::vector<std::uint32_t> cache_epochs_;
  // Next mirror_rev to stamp on a render message per device; zeroed with each
  // epoch reset so the service can spot a hole in the decode chain (messages
  // the transport delivered past an abandoned predecessor).
  std::vector<std::uint64_t> mirror_revs_;
  std::uint32_t state_epoch_ = 0;
  // Per-device apply floor: sequences below it will never reach the device
  // (abandoned or rendered locally); carried in render headers.
  std::vector<std::uint64_t> apply_floors_;
  std::uint64_t state_apply_floor_ = 0;

  // Devices whose replica missed at least one state multicast while dead:
  // they must receive a snapshot before re-entering dispatch.
  std::vector<bool> needs_snapshot_;
  // An outage abandons one state multicast per frame, but a single snapshot
  // heals all of them at once: per device, the state-group message ids below
  // this bound were already covered by a snapshot, so their abandons need no
  // further resync. (Transport ids on the state-group stream are allocated
  // 0,1,2,… by this runtime alone.)
  std::vector<std::uint64_t> snapshot_covers_ids_;
  std::uint64_t state_msgs_sent_ = 0;

  std::map<std::uint64_t, InFlight> in_flight_;
  // (stream, transport message id) -> frame sequence, for abandon handling.
  std::map<std::pair<net::NodeId, std::uint64_t>, std::uint64_t> msg_to_seq_;
  // True while abandon_stream is tearing down a render stream's outstanding
  // messages: the initiating caller handles the mirror reset and cohort
  // re-dispatch once, so the per-message abandon re-entries only clean up
  // their message mappings.
  bool stream_abandon_in_progress_ = false;
  // Outstanding snapshot messages: (stream, id) -> device index, so an
  // abandoned resync is retried on the device's next liveness signal.
  std::map<std::pair<net::NodeId, std::uint64_t>, std::size_t> snapshot_msgs_;

  struct ReadyFrame {
    SimTime displayable_at;
    SimTime issued;
    Image content;
    int quality = 0;  // encoder quality override the frame carried (0 = none)
  };
  std::map<std::uint64_t, ReadyFrame> ready_;
  std::uint64_t next_display_sequence_ = 0;

  // --- dispatch queue and overload control (DESIGN.md §11) -----------------
  QosGovernor governor_;
  // Sequences waiting for the packing core, oldest first.
  std::deque<std::uint64_t> dispatch_queue_;
  bool pump_scheduled_ = false;
  // Shed sequences the presenter must step over without waiting for the
  // display-gap timeout.
  std::set<std::uint64_t> shed_sequences_;

  // --- shared-store dedup (DESIGN.md §14) ----------------------------------
  // True from construction until every device's manifest arrived or the
  // manifest_wait deadline fired; frames issued meanwhile are held in
  // join_hold_ (they still count against the pending window).
  bool join_pending_ = false;
  bool join_sent_ = false;
  SimTime join_hold_started_;
  std::vector<wire::FrameCommands> join_hold_;
  // Per-device manifest (null until that device replied), plus the cached
  // intersection used for state multicasts.
  std::vector<std::unique_ptr<compress::SharedManifest>> manifests_;
  compress::SharedManifest state_manifest_;
  bool state_manifest_valid_ = false;

  // Health monitor state: outstanding probes by nonce.
  struct PendingPing {
    std::size_t device_index = 0;
    SimTime sent;
  };
  std::map<std::uint64_t, PendingPing> pending_pings_;
  std::uint64_t next_ping_nonce_ = 1;

  // Local-render fallback: the genuine driver bound via the linker before
  // the wrapper shadowed it (null when install() was never called or no
  // genuine GLES library is registered — timing still works, pixels don't).
  std::unique_ptr<gles::GlesApi> local_gles_;
  SimTime local_busy_until_;

  // Expires in the destructor; see schedule_after_guarded.
  std::shared_ptr<char> alive_ = std::make_shared<char>('\0');

  codec::TurboDecoder decoder_;
  runtime::Tracer* tracer_ = nullptr;  // == config_.tracer
  SimTime cpu_busy_until_;  // serializes the pack/compress CPU work
  DisplayFn display_;
  std::function<double()> workload_override_;
  GBoosterStats stats_;
};

}  // namespace gb::core
