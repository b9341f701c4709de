// Wire protocol of the campaign execution service.
//
// Everything that crosses a process boundary — work units going out to
// workers, trial results coming back — travels as a *frame*: a versioned,
// length-prefixed, integrity-checked envelope built on the same
// snap::Writer/Reader/Hasher codec the snapshot subsystem uses, so one
// binary idiom (little-endian fixed-width fields, length-prefixed
// containers, FNV-1a trailers, FormatError on anything malformed) serves
// both persistence and transport.
//
// Frame layout (all little-endian):
//   offset 0   u64  magic "bgpsvc\0\0"
//   offset 8   u32  protocol version (kProtocolVersion)
//   offset 12  u8   frame type (FrameType)
//   offset 13  u64  payload length (rejected above kMaxPayload)
//   offset 21  ...  payload bytes
//   trailer    u64  FNV-1a over everything before the trailer
//
// The version sits at a fixed offset so a reader can reject a frame from
// a future protocol before trusting any field behind it, mirroring
// snap::Snapshot's format-version discipline. Truncation, bad magic,
// version mismatch, an oversized length prefix, an unknown frame type,
// and a corrupt trailer all throw snap::FormatError with a precise
// message — never undefined behavior, never a silent misparse.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "snap/codec.hpp"

namespace bgpsim::svc {

/// "bgpsvc\0\0" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x0000637673706762ULL;

/// Bump on any change to the frame envelope or any payload layout.
/// v2: TopologySpec::rel_file added to the scenario payload.
/// v3: multi-prefix — the scenario payload carries prefixes + origins and
///     the outcome payload carries the per-prefix metric lanes.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// The version this build speaks — what goes into every frame header, the
/// svcd journal file header, and admin STATUS lines. One accessor so the
/// coordinator, the worker loop, and the daemon cannot drift apart.
[[nodiscard]] std::uint32_t protocol_version();

/// The one place a version field from any source (frame header, journal
/// header) is validated. Throws snap::FormatError naming `context` when
/// `seen` is not the version this build speaks — a peer or file from a
/// different build fails precisely and immediately, never hangs.
void check_protocol_version(std::uint32_t seen, const std::string& context);

/// Fixed size of the frame header (magic + version + type + payload
/// length); the payload and the u64 trailer follow.
inline constexpr std::size_t kHeaderSize = 8 + 4 + 1 + 8;

/// Upper bound on a frame payload. Work units are a few hundred bytes and
/// even pathological results (every packet in a loop record) stay far
/// below this; anything larger is a corrupt or hostile length prefix.
inline constexpr std::uint64_t kMaxPayload = 64ULL * 1024 * 1024;

enum class FrameType : std::uint8_t {
  kHello = 1,     // worker -> coordinator: pid + worker id, sent once
  kWork = 2,      // coordinator -> worker: one WorkUnit
  kResult = 3,    // worker -> coordinator: one UnitResult
  kError = 4,     // worker -> coordinator: unit failed with a message
  kShutdown = 5,  // coordinator -> worker: drain and exit
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> payload;
};

/// Envelope a payload: header, payload, FNV-1a trailer. `version` is the
/// header's protocol-version field; overriding it builds a frame a v2
/// reader must reject (the cross-version handshake tests speak "v3" this
/// way — production callers never pass it).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const Frame& frame, std::uint32_t version = kProtocolVersion);

/// Parse and validate a frame header. Throws snap::FormatError on short
/// input, bad magic, protocol-version mismatch, unknown frame type, or a
/// payload length above kMaxPayload. Returns the declared payload length
/// through `payload_len` so a stream reader knows how many more bytes to
/// collect (payload + 8-byte trailer) before calling decode_frame.
[[nodiscard]] FrameType decode_frame_header(
    std::span<const std::uint8_t> header, std::uint64_t& payload_len);

/// Parse one complete frame (header + payload + trailer). Performs every
/// header check plus truncation, trailing-byte, and integrity-trailer
/// validation. Throws snap::FormatError on any violation.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> bytes);

// ---- payload schemas -------------------------------------------------------

/// First frame on every worker connection: identifies the worker.
struct Hello {
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
};

/// One unit of campaign work: run trials [trial_begin, trial_begin +
/// trial_count) of `scenario`, exactly as core::run_single_trial derives
/// them. scenario_index routes the result back to the right sweep slot.
struct WorkUnit {
  std::uint64_t unit_id = 0;
  std::uint64_t scenario_index = 0;
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_count = 0;
  core::Scenario scenario;
};

/// A completed unit: trial-ordered outcomes for the unit's range.
struct UnitResult {
  std::uint64_t unit_id = 0;
  std::uint64_t scenario_index = 0;
  std::uint64_t trial_begin = 0;
  std::vector<core::ExperimentOutcome> outcomes;
};

/// A unit that threw inside a worker (e.g. convergence timeout).
struct UnitError {
  std::uint64_t unit_id = 0;
  std::string message;
};

[[nodiscard]] Frame encode_hello(const Hello& hello);
[[nodiscard]] Hello decode_hello(const Frame& frame);
[[nodiscard]] Frame encode_work(const WorkUnit& unit);
[[nodiscard]] WorkUnit decode_work(const Frame& frame);
[[nodiscard]] Frame encode_result(const UnitResult& result);
[[nodiscard]] UnitResult decode_result(const Frame& frame);
[[nodiscard]] Frame encode_error(const UnitError& error);
[[nodiscard]] UnitError decode_error(const Frame& frame);
[[nodiscard]] Frame encode_shutdown();

// ---- value codecs ----------------------------------------------------------

/// Serialize every value field of a Scenario (topology, event, protocol
/// config, processing/traffic parameters, seeds, overrides, timing knobs,
/// snapshot-probe mode). Caller-owned observation hooks (trace, oracle,
/// save_converged, warm_start) and a non-null bgp.policy table cannot
/// cross a process boundary; write_scenario throws std::invalid_argument
/// if any is set, so a campaign never silently drops an observer.
void write_scenario(snap::Writer& w, const core::Scenario& s);
[[nodiscard]] core::Scenario read_scenario(snap::Reader& r);

/// Lossless ExperimentOutcome codec: all metrics (including per-loop
/// records, loop statistics, activity profiles, and timeline fields) with
/// doubles carried as raw bit patterns, so a merged campaign aggregate is
/// bit-identical to an in-process run.
void write_outcome(snap::Writer& w, const core::ExperimentOutcome& o);
[[nodiscard]] core::ExperimentOutcome read_outcome(snap::Reader& r);

/// Content hash of a TrialSet's results: FNV-1a over the codec encoding
/// of every run plus the six summaries. Two TrialSets with equal digests
/// are bit-identical in everything the runs produced — this is the check
/// that a merged campaign equals core::run_trials.
[[nodiscard]] std::uint64_t trialset_digest(const core::TrialSet& set);

/// Campaign-wide digest: trialset_digest of each set, folded in order.
[[nodiscard]] std::uint64_t campaign_digest(
    const std::vector<core::TrialSet>& sets);

}  // namespace bgpsim::svc
