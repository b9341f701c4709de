#include "core/scenario_file.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace bgpsim::core {
namespace {

/// The file's name for each topology kind, for the parser and the
/// formatter alike.
using TopologyName = std::pair<std::string_view, TopologyKind>;
constexpr TopologyName kTopologies[] = {
    {"clique", TopologyKind::kClique},     {"bclique", TopologyKind::kBClique},
    {"chain", TopologyKind::kChain},       {"ring", TopologyKind::kRing},
    {"internet", TopologyKind::kInternet}, {"asgraph", TopologyKind::kAsGraph},
    {"relfile", TopologyKind::kRelFile},
};

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

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error{what};
}

double to_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument{""};
    return v;
  } catch (...) {
    bad("bad numeric value for '" + key + "': " + value);
  }
}

std::uint64_t to_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const auto v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument{""};
    return v;
  } catch (...) {
    bad("bad integer value for '" + key + "': " + value);
  }
}

/// Write `key = v`, with `v` in the shortest text that parses back to it.
void put(std::ostream& out, const char* key, double v) {
  std::array<char, 32> buf{};
  const char* end = std::to_chars(buf.data(), buf.data() + buf.size(), v).ptr;
  out << key << " = " << std::string_view(buf.data(), end) << "\n";
}

bool to_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  bad("bad boolean value for '" + key + "': " + value);
}

}  // namespace

void apply_scenario_key(Scenario& s, const std::string& key,
                        const std::string& value) {
  if (key == "topology") {
    const auto* named =
        std::ranges::find(kTopologies, value, &TopologyName::first);
    if (named == std::end(kTopologies)) bad("unknown topology: " + value);
    s.topology.kind = named->second;
  } else if (key == "rel_file") {
    s.topology.rel_file = value;
  } else if (key == "size") {
    s.topology.size = static_cast<std::size_t>(to_u64(key, value));
  } else if (key == "topo_seed") {
    s.topology.topo_seed = to_u64(key, value);
  } else if (key == "event") {
    if (value == "tdown") s.event = EventKind::kTdown;
    else if (value == "tlong") s.event = EventKind::kTlong;
    else if (value == "tup") s.event = EventKind::kTup;
    else if (value == "flap") s.event = EventKind::kFlap;
    else bad("unknown event: " + value);
  } else if (key == "flap_s") {
    const double v = to_double(key, value);
    if (v <= 0) bad("flap_s must be positive");
    s.flap_interval = sim::SimTime::seconds(v);
  } else if (key == "protocol") {
    if (value == "bgp") s.bgp = s.bgp.with(bgp::Enhancement::kStandard);
    else if (value == "ssld") s.bgp = s.bgp.with(bgp::Enhancement::kSsld);
    else if (value == "wrate") s.bgp = s.bgp.with(bgp::Enhancement::kWrate);
    else if (value == "assertion")
      s.bgp = s.bgp.with(bgp::Enhancement::kAssertion);
    else if (value == "ghost")
      s.bgp = s.bgp.with(bgp::Enhancement::kGhostFlushing);
    else bad("unknown protocol: " + value);
  } else if (key == "mrai") {
    const double v = to_double(key, value);
    if (v < 0) bad("mrai must be non-negative");
    s.bgp.mrai = sim::SimTime::seconds(v);
  } else if (key == "jitter_lo") {
    s.bgp.jitter_lo = to_double(key, value);
  } else if (key == "jitter_hi") {
    s.bgp.jitter_hi = to_double(key, value);
  } else if (key == "seed") {
    s.seed = to_u64(key, value);
  } else if (key == "policy") {
    s.policy_routing = to_bool(key, value);
  } else if (key == "destination") {
    s.destination = static_cast<net::NodeId>(to_u64(key, value));
  } else if (key == "tlong_link") {
    s.tlong_link = static_cast<net::LinkId>(to_u64(key, value));
  } else if (key == "processing_min_ms") {
    s.processing.min = sim::SimTime::seconds(to_double(key, value) / 1000.0);
  } else if (key == "processing_max_ms") {
    s.processing.max = sim::SimTime::seconds(to_double(key, value) / 1000.0);
  } else if (key == "traffic_pps") {
    const double pps = to_double(key, value);
    if (pps <= 0) bad("traffic_pps must be positive");
    s.traffic.interval = sim::SimTime::seconds(1.0 / pps);
  } else if (key == "ttl") {
    s.traffic.ttl = static_cast<int>(to_u64(key, value));
  } else if (key == "caution") {
    const double v = to_double(key, value);
    if (v < 0) bad("caution must be non-negative");
    s.bgp.backup_caution = sim::SimTime::seconds(v);
  } else if (key == "prefixes") {
    // stoull wraps negatives silently, so reject the sign up front.
    if (!value.empty() && value[0] == '-') {
      bad("prefixes must be a positive count, got: " + value);
    }
    const auto n = to_u64(key, value);
    if (n == 0) bad("prefixes must be at least 1, got: 0");
    s.prefixes = static_cast<std::size_t>(n);
  } else if (key == "origins") {
    // Comma-separated origin AS list for prefixes >= 1 (applied cycled).
    std::string rest = value;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      const std::string item = trimmed(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (item.empty()) bad("empty entry in 'origins' list");
      if (item[0] == '-') bad("origin AS must be non-negative, got: " + item);
      s.origins.push_back(static_cast<net::NodeId>(to_u64(key, item)));
    }
    if (s.origins.empty()) bad("empty 'origins' list");
  } else {
    bad("unknown key: " + key);
  }
}

Scenario parse_scenario(std::istream& in) {
  Scenario s;
  bool saw_topology = false;
  bool saw_size = false;
  std::size_t prefixes_line = 0;  // line that set 'prefixes' (0 = unset)
  std::size_t origins_line = 0;   // line that set 'origins' (0 = unset)
  std::map<std::string, std::size_t> seen_keys;  // key -> first line

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
    if (key == "topology") saw_topology = true;
    if (key == "size") saw_size = true;
    if (key == "prefixes") prefixes_line = line_no;
    if (key == "origins") origins_line = line_no;
  }
  if (!saw_topology) throw std::runtime_error{"scenario file: missing 'topology'"};
  if (s.topology.kind == TopologyKind::kRelFile) {
    // The relationship file decides the node count, so 'size' is neither
    // required nor meaningful for this kind.
    if (s.topology.rel_file.empty()) {
      throw std::runtime_error{
          "scenario file: topology relfile needs 'rel_file'"};
    }
  } else if (!saw_size) {
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
  if (origins_line != 0 && prefixes_line == 0) {
    fail(origins_line, "'origins' requires 'prefixes' > 1");
  }
  if (origins_line != 0 && s.prefixes < 2) {
    fail(origins_line, "'origins' needs prefixes >= 2 (prefix 0 always "
                       "originates at the destination)");
  }
  // Origins must name real nodes. The node count is known here for every
  // sized kind (relfile derives it from the file, so it is checked at
  // build time instead).
  if (s.topology.kind != TopologyKind::kRelFile) {
    const std::size_t n = s.topology.kind == TopologyKind::kBClique
                              ? 2 * s.topology.size
                              : s.topology.size;
    for (const net::NodeId o : s.origins) {
      if (o >= n) {
        fail(origins_line, "origin AS " + std::to_string(o) +
                               " out of range for " +
                               std::to_string(n) + "-node topology");
      }
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
  std::ostringstream out;
  out << "topology = "
      << std::ranges::find(kTopologies, s.topology.kind, &TopologyName::second)
             ->first
      << "\n";
  if (s.topology.kind == TopologyKind::kRelFile) {
    out << "rel_file = " << s.topology.rel_file << "\n";
  } else {
    out << "size = " << s.topology.size << "\n";
  }
  out << "topo_seed = " << s.topology.topo_seed << "\n";
  out << "event = "
      << (s.event == EventKind::kTdown    ? "tdown"
          : s.event == EventKind::kTlong  ? "tlong"
          : s.event == EventKind::kFlap   ? "flap"
                                          : "tup")
      << "\n";
  if (s.event == EventKind::kFlap) {
    put(out, "flap_s", s.flap_interval.as_seconds());
  }
  out << "protocol = "
      << (s.bgp.ssld ? "ssld"
                     : s.bgp.wrate ? "wrate"
                                   : s.bgp.assertion
                                         ? "assertion"
                                         : s.bgp.ghost_flushing ? "ghost"
                                                                : "bgp")
      << "\n";
  put(out, "mrai", s.bgp.mrai.as_seconds());
  put(out, "jitter_lo", s.bgp.jitter_lo);
  put(out, "jitter_hi", s.bgp.jitter_hi);
  out << "seed = " << s.seed << "\n";
  out << "policy = " << (s.policy_routing ? "true" : "false") << "\n";
  if (s.destination) out << "destination = " << *s.destination << "\n";
  if (s.tlong_link) out << "tlong_link = " << *s.tlong_link << "\n";
  put(out, "processing_min_ms", s.processing.min.as_millis());
  put(out, "processing_max_ms", s.processing.max.as_millis());
  put(out, "traffic_pps", 1.0 / s.traffic.interval.as_seconds());
  out << "ttl = " << s.traffic.ttl << "\n";
  put(out, "caution", s.bgp.backup_caution.as_seconds());
  // Emitted only for multi-prefix scenarios so single-prefix round-trip
  // text (and everything hashed from it) is byte-identical to before.
  if (s.prefixes > 1) {
    out << "prefixes = " << s.prefixes << "\n";
    if (!s.origins.empty()) {
      out << "origins = ";
      for (std::size_t i = 0; i < s.origins.size(); ++i) {
        if (i != 0) out << ",";
        out << s.origins[i];
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace bgpsim::core
