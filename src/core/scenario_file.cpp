#include "core/scenario_file.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/scenario_fields.hpp"
#include "core/selection.hpp"

namespace bgpsim::core {
namespace {

std::string trimmed(const std::string& raw) {
  const auto begin = raw.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = raw.find_last_not_of(" \t\r");
  return raw.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error{"scenario file line " + std::to_string(line) +
                           ": " + what};
}

}  // namespace

void apply_scenario_key(Scenario& s, const std::string& key,
                        const std::string& value) {
  bool known = false;
  for_each_field([&](const auto& f) {
    if (f.exposure != Exposure::kFile || f.key != key) return;
    f.parse(s, f.key, value);
    known = true;
  });
  if (!known) throw std::runtime_error{"unknown key: " + key};
}

Scenario parse_scenario(std::istream& in) {
  Scenario s;
  std::map<std::string, std::size_t> seen_keys;  // key -> its line
  const auto line_of = [&seen_keys](const std::string& key) -> std::size_t {
    const auto it = seen_keys.find(key);
    return it == seen_keys.end() ? 0 : it->second;
  };

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments, then whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trimmed(raw);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trimmed(line.substr(0, eq));
    const std::string value = trimmed(line.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line_no, "empty key or value");

    // Duplicate keys are near-certainly an editing mistake; silently
    // letting the last one win hides it, so reject the file.
    const auto [it, first_use] = seen_keys.emplace(key, line_no);
    if (!first_use) {
      fail(line_no, "duplicate key '" + key + "' (first set on line " +
                        std::to_string(it->second) + ")");
    }

    try {
      apply_scenario_key(s, key, value);
    } catch (const std::runtime_error& e) {
      fail(line_no, e.what());
    }
  }
  if (line_of("topology") == 0) {
    throw std::runtime_error{"scenario file: missing 'topology'"};
  }
  if (s.topology.kind == TopologyKind::kRelFile) {
    // The relationship file decides the node count, so 'size' is neither
    // required nor meaningful for this kind.
    if (s.topology.rel_file.empty()) {
      throw std::runtime_error{
          "scenario file: topology relfile needs 'rel_file'"};
    }
  } else if (line_of("size") == 0) {
    throw std::runtime_error{"scenario file: missing 'size'"};
  }
  if (!s.topology.rel_file.empty() &&
      s.topology.kind != TopologyKind::kRelFile) {
    throw std::runtime_error{
        "scenario file: 'rel_file' requires topology = relfile"};
  }
  if (s.bgp.jitter_lo > s.bgp.jitter_hi) {
    throw std::runtime_error{"scenario file: jitter_lo > jitter_hi"};
  }
  if (s.processing.min > s.processing.max) {
    throw std::runtime_error{
        "scenario file: processing_min_ms > processing_max_ms"};
  }
  const std::size_t origins_line = line_of("origins");
  if (origins_line != 0 && line_of("prefixes") == 0) {
    fail(origins_line, "'origins' requires 'prefixes' > 1");
  }
  if (origins_line != 0 && s.prefixes < 2) {
    fail(origins_line, "'origins' needs prefixes >= 2 (prefix 0 always "
                       "originates at the destination)");
  }
  // Origins, the destination and the failed link must name real nodes and
  // links. A sized kind is built here to count them (relfile derives them
  // from the file, so the run checks those).
  if (s.topology.kind != TopologyKind::kRelFile &&
      (s.destination || s.tlong_link || !s.origins.empty())) {
    const net::Topology topo = s.topology.build();
    for (const net::NodeId o : s.origins) {
      if (o >= topo.node_count()) {
        fail(origins_line, "origin AS " + std::to_string(o) +
                               " out of range for " +
                               std::to_string(topo.node_count()) +
                               "-node topology");
      }
    }
    try {
      check_scenario(s, topo);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error{std::string{"scenario file: "} + e.what()};
    }
  }
  return s;
}

Scenario parse_scenario_string(const std::string& text) {
  std::istringstream in{text};
  return parse_scenario(in);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open scenario file: " + path};
  return parse_scenario(in);
}

std::string to_scenario_text(const Scenario& s) {
  std::string text;
  for_each_field([&](const auto& f) {
    if (f.exposure != Exposure::kFile) return;
    if (const auto value = f.format(s)) {
      text += std::string{f.key} + " = " + *value + "\n";
    }
  });
  return text;
}

}  // namespace bgpsim::core
