// Versioned, deterministic checkpoints of complete simulation state.
//
// A Snapshot is an opaque payload (written by an experiment driver via
// snap::Writer) plus identity metadata: which driver wrote it, hashes of
// the topology and of every prelude-shaping configuration knob, the root
// seed, and the simulation clock. The metadata is what makes restore safe:
// a driver refuses to warm-start from a snapshot whose identity does not
// match the scenario it is about to run, with a precise error instead of
// silently diverging state.
//
// On-disk layout of encode() (all little-endian):
//   offset 0   u64  magic "bgpsnap\0"
//   offset 8   u32  format version (kFormatVersion)
//   offset 12  ...  meta fields, u64 payload length, payload bytes
//   trailer    u64  FNV-1a over everything before the trailer
// The version sits at a fixed offset so readers can reject a future
// format before trusting any field behind it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "snap/codec.hpp"

namespace bgpsim::snap {

/// Bump on any change to the meta or payload layout.
/// v2: pooled-queue EventId encoding (slot|generation) inside serialized
/// MRAI timers; the data plane's bridge event moved to the simulator's
/// external slot and its EventId left the record.
/// v3: the simulator prologue gained the live pending-event list as
/// sorted (time µs, seq) pairs — the backend-invariant view of the event
/// queue, byte-identical whether the run used the timer wheel or the
/// heap (slot/generation/free-list order are allocation artifacts and
/// stay out of the stream). Restore verifies the list against the live
/// queue instead of rebuilding it: closures are not serializable, so a
/// fresh restore still requires quiescence (zero entries).
/// v4: multi-prefix SoA RIB — the BGP payload gained a shared prefix
/// table section ahead of the per-node sections, and in-queue update
/// payloads carry a tag byte (0 = single UpdateMsg, 1 = UpdateBatch).
/// v5: redesigned fwd API — the data plane's hop events are serialized in
/// ascending (time µs, seq) order as an explicit backend-invariant
/// contract (ring cohorts or the binary-heap reference), so snapshots
/// are portable across hop-store backends; the bump fences off
/// v4 builds whose data plane cannot restore into a ring store.
inline constexpr std::uint32_t kFormatVersion = 5;

/// Byte offset of the format-version field inside encode() output —
/// stable across versions (it sits directly behind the magic).
inline constexpr std::size_t kVersionOffset = 8;

/// Which experiment driver wrote the payload. Payload layouts are
/// per-driver and private to that driver; the tag prevents cross-feeding.
enum class DriverKind : std::uint8_t { kBgp = 1, kDv = 2, kLs = 3 };

[[nodiscard]] constexpr const char* to_string(DriverKind d) {
  switch (d) {
    case DriverKind::kBgp:
      return "bgp";
    case DriverKind::kDv:
      return "dv";
    case DriverKind::kLs:
      return "ls";
  }
  return "?";
}

struct SnapshotMeta {
  DriverKind driver = DriverKind::kBgp;
  /// hash_topology() of the built topology the state refers to.
  std::uint64_t topology_hash = 0;
  /// Driver-specific hash of every knob that shaped the saved state
  /// (protocol config, processing delays, destination-choice inputs).
  std::uint64_t config_hash = 0;
  /// Scenario root seed the run was started with.
  std::uint64_t seed = 0;
  /// The destination the run selected (restore must agree on it).
  net::NodeId destination = net::kInvalidNode;
  /// Whether the prelude included the origination (event != Tup).
  bool originated = false;
  /// True when taken at control-plane quiescence with an empty event
  /// queue — the only instant a snapshot can be restored into a freshly
  /// constructed object graph (scheduled closures are not serializable).
  bool quiescent = false;
  /// Simulation clock at the instant of capture.
  sim::SimTime sim_time = sim::SimTime::zero();
};

class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(SnapshotMeta meta, std::vector<std::uint8_t> payload);

  [[nodiscard]] const SnapshotMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const {
    return payload_;
  }
  /// True for a default-constructed (never captured) snapshot.
  [[nodiscard]] bool empty() const { return payload_.empty(); }
  /// FNV-1a over the payload: the state fingerprint the restore-equivalence
  /// checks compare.
  [[nodiscard]] std::uint64_t content_hash() const { return content_hash_; }
  [[nodiscard]] std::size_t size_bytes() const { return payload_.size(); }

  /// Self-contained blob: magic, version, meta, payload, integrity hash.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parse an encoded blob. Throws FormatError on bad magic, unsupported
  /// version, truncation, trailing bytes, or integrity-hash mismatch.
  [[nodiscard]] static Snapshot decode(std::span<const std::uint8_t> blob);

  /// File I/O over encode()/decode(). Throws std::runtime_error on I/O
  /// failure, FormatError on malformed content.
  void save_file(const std::string& path) const;
  [[nodiscard]] static Snapshot load_file(const std::string& path);

 private:
  SnapshotMeta meta_;
  std::vector<std::uint8_t> payload_;
  std::uint64_t content_hash_ = fnv1a({});
};

/// Identity hash of a topology: node count plus every link's endpoints,
/// delay, and up/down state.
[[nodiscard]] std::uint64_t hash_topology(const net::Topology& topo);

}  // namespace bgpsim::snap
