// Text scenario files: archive and replay experiment configurations.
//
// Format: one `key = value` per line; `#` starts a comment; a key may
// appear once. Keys (apply_scenario_key):
//
//   topology   clique|bclique|chain|ring|internet|asgraph|relfile (required)
//   size       node count / B-Clique n     (required, except for relfile)
//   rel_file   CAIDA as1|as2|rel file path (required for relfile, which
//              takes its node count from the file; only with relfile)
//   topo_seed  integer                               (default 1)
//   event      tdown|tlong|tup|flap                  (default tdown)
//   flap_s     seconds a flapped link stays down     (default 15, > 0)
//   protocol   bgp|ssld|wrate|assertion|ghost        (default bgp)
//   mrai       seconds                               (default 30)
//   jitter_lo / jitter_hi   MRAI jitter factors      (default 0.75 / 1.0)
//   seed       integer                               (default 1)
//   policy     true|false (Gao-Rexford routing)      (default false)
//   destination / tlong_link   integers              (optional overrides)
//   processing_min_ms / processing_max_ms            (default 100 / 500)
//   traffic_pps   packets per second per source      (default 10)
//   ttl           initial packet TTL                 (default 128)
//   caution       backup-caution seconds (§3.3)      (default 0)
//   prefixes   prefix count of a full-table run      (default 1)
//   origins    comma-separated origin nodes of prefixes >= 1, cycled
//              (needs prefixes >= 2; default: all at the destination)
#pragma once

#include <iosfwd>
#include <string>

#include "core/scenario.hpp"

namespace bgpsim::core {

/// Parse a scenario description. Throws std::runtime_error with a
/// line-numbered message on malformed input, unknown keys, or bad values.
[[nodiscard]] Scenario parse_scenario(std::istream& in);
[[nodiscard]] Scenario parse_scenario_string(const std::string& text);
[[nodiscard]] Scenario load_scenario_file(const std::string& path);

/// Apply one `key = value` setting of the file format to `s` (the keys
/// listed above). Throws std::runtime_error naming the key and value on
/// an unknown key or a bad value; parse_scenario adds the line number.
/// Whole-file checks (required keys, cross-key consistency) are
/// parse_scenario's alone.
void apply_scenario_key(Scenario& s, const std::string& key,
                        const std::string& value);

/// Serialize a Scenario back into the file format (round-trips through
/// parse_scenario for all file-expressible fields).
[[nodiscard]] std::string to_scenario_text(const Scenario& scenario);

}  // namespace bgpsim::core
