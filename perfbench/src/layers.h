// Per-layer host cost, timed from outside the program.
//
// The probes rebuild one workload's pipeline from the modules' public
// functions, on that workload's own inputs (app, surface, render size, cache
// and link settings, seeds), and time each call with a steady clock:
//
//   hooking   GameApp -> link_gles dispatch table -> CommandRecorder, minus
//             GameApp -> CommandRecorder directly
//   wire      CommandRecorder (record) and replay_frame (replay)
//   compress  command-cache encode/decode, LZ4 compress/decompress
//   gles      the rasterizer flush after replay, on a twin replica
//   codec     the service's raster + Turbo encode call (fused where the
//             service fuses them) minus the twin's raster; Turbo decode
//   net       ReliableEndpoint over Media configured like the workload's
//             links, carrying the workload's framed protocol messages at
//             the frame rate of its own harness run
//   runtime   EventLoop::step on a queue as deep as the net probe's
//
// The probes also run the traced run's output checks: replayed pixels must
// equal a direct local render of the same frames, every Turbo frame must
// decode and stay within the codec's quality bound, and every cache-decoded
// frame must equal the recorded one.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "workloads.h"

namespace perfbench {

struct LayerChecks {
  bool pixels_match = true;
  bool cache_roundtrip = true;
  bool decode_failed = false;  // a Turbo frame did not decode
  bool codec_quality = true;   // every frame decoded, none below the bound
  std::optional<double> min_psnr_db;  // lowest decoded-frame PSNR, if any
};

// Metric name -> value, per-frame values over the probe's frames.
using LayerValues = std::map<std::string, double>;

struct LayerReport {
  LayerValues values;
  // Host microseconds per frame summed over every timed layer, for the
  // share of the harness's host cost the layers account for.
  double layer_sum_us_per_frame = 0.0;
  LayerChecks checks;
};

// `fps_per_user` is the displayed frames per user per sim second of the
// workload's own harness run; the probes issue frames at that rate.
LayerReport run_layer_probes(Workload workload, std::uint64_t seed,
                             double fps_per_user);

}  // namespace perfbench
