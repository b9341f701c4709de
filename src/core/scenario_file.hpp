// Text scenario files: archive and replay experiment configurations.
//
// Format: one `key = value` per line; `#` starts a comment; a key may
// appear once. The keys and their values are the kFile rows of the
// Scenario field table (core/scenario_fields.cpp); an absent key keeps
// Scenario's default. topology is required, and so is size for every kind
// but relfile, which takes rel_file instead.
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

/// Apply one `key = value` setting of the file format to `s` (a kFile row
/// of the field table). Throws std::runtime_error naming the key and value on
/// an unknown key or a bad value; parse_scenario adds the line number.
/// Whole-file checks (required keys, cross-key consistency) are
/// parse_scenario's alone.
void apply_scenario_key(Scenario& s, const std::string& key,
                        const std::string& value);

/// Serialize a Scenario back into the file format (round-trips through
/// parse_scenario for all file-expressible fields).
[[nodiscard]] std::string to_scenario_text(const Scenario& scenario);

}  // namespace bgpsim::core
