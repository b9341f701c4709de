#include "core/scenario_fields.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/selection.hpp"

namespace bgpsim::core {
namespace {

// ---- codecs: one per unit, each validating once and naming the key ---------

[[noreturn]] void bad(std::string_view key, const std::string& what) {
  throw std::runtime_error{std::string{key} + " " + what};
}

/// `v` in the shortest text that parses back to it.
std::string shortest(double v) {
  std::array<char, 32> buf{};
  char* end = std::to_chars(buf.data(), buf.data() + buf.size(), v).ptr;
  return {buf.data(), end};
}

/// Unsigned integers of any width, at least `Min`.
template <std::uint64_t Min = 0>
struct Uint {
  template <typename T>
  static void parse(std::string_view key, const std::string& text, T& out) {
    if (text.starts_with('-')) {
      bad(key, (Min > 0 ? "must be a positive count, got: "
                        : "must be non-negative, got: ") + text);
    }
    std::uint64_t v = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    const std::uint64_t max = std::numeric_limits<T>::max();
    if (ec == std::errc::result_out_of_range || v > max) {
      bad(key, "= " + text + " is out of range (at most " +
                   std::to_string(max) + ")");
    }
    if (ec != std::errc{} || end != last) {
      bad(key, "must be an integer, got: " + text);
    }
    if (v < Min) {
      bad(key, "must be at least " + std::to_string(Min) + ", got: " + text);
    }
    out = static_cast<T>(v);
  }
  template <typename T>
  static std::string format(T v) {
    return std::to_string(v);
  }
};

/// A finite number, non-negative or (Positive) positive, held as a double
/// or as a SimTime: `text` / Divisor seconds, or for a rate (Divisor 0) an
/// interval of 1 / `text` seconds. A SimTime must fit in microseconds.
template <int Divisor, bool Positive = false>
struct Number {
  template <typename T>
  static void parse(std::string_view key, const std::string& text, T& out) {
    double v = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc{} || end != last || !std::isfinite(v)) {
      bad(key, "must be a finite number, got: " + text);
    }
    if (Positive ? v <= 0 : v < 0) {
      bad(key, (Positive ? "must be positive, got: "
                         : "must be non-negative, got: ") + text);
    }
    if constexpr (std::is_same_v<T, double>) {
      out = v;
    } else {
      const double seconds = Divisor == 0 ? 1 / v : v / Divisor;
      if (!(seconds * 1e6 < 0x1p63)) {
        bad(key, "= " + text + " is beyond the simulator's time range");
      }
      out = sim::SimTime::seconds(seconds);
      if (out == sim::SimTime::zero() && Divisor == 0) {
        bad(key, "= " + text + " is more than one per microsecond");
      }
    }
  }
  template <typename T>
  static std::string format(T v) {
    if constexpr (std::is_same_v<T, double>) {
      return shortest(v);
    } else if constexpr (Divisor == 0) {
      return shortest(1.0 / v.as_seconds());
    } else {
      return shortest(static_cast<double>(v.as_micros()) / (1e6 / Divisor));
    }
  }
};

using Real = Number<1>;
using Seconds = Number<1>;
using Millis = Number<1000>;
/// traffic_pps, a proxy over the send interval: the file gives a rate.
using Rate = Number<0, true>;

/// Any text (the rel_file path).
struct Text {
  static void parse(std::string_view, const std::string& text,
                    std::string& out) {
    out = text;
  }
  static std::string format(const std::string& v) { return v; }
};

/// An enumeration, by the keys in `Names`.
template <const auto& Names>
struct Enum {
  template <typename E>
  static void parse(std::string_view key, const std::string& text, E& out) {
    const auto* named = std::ranges::find(Names, text, &Named<E>::key);
    if (named == std::end(Names)) {
      throw std::runtime_error{"unknown " + std::string{key} + ": " + text};
    }
    out = named->value;
  }
  template <typename E>
  static std::string format(E v) {
    return std::string{std::ranges::find(Names, v, &Named<E>::value)->key};
  }
};

constexpr Named<bool> kBools[] = {{true, "true"}, {false, "false"},
                                  {true, "1"},    {false, "0"},
                                  {true, "yes"},  {false, "no"}};
using Bool = Enum<kBools>;
constexpr Named<SnapRoundtrip> kRoundtrips[] = {
    {SnapRoundtrip::kOff, "off"},
    {SnapRoundtrip::kNoop, "noop"},
    {SnapRoundtrip::kVerify, "verify"},
};
constexpr Named<bgp::Enhancement> kProtocols[] = {
    {bgp::Enhancement::kStandard, "bgp"},
    {bgp::Enhancement::kSsld, "ssld"},
    {bgp::Enhancement::kWrate, "wrate"},
    {bgp::Enhancement::kAssertion, "assertion"},
    {bgp::Enhancement::kGhostFlushing, "ghost"},
};
constexpr bool bgp::BgpConfig::*kFlags[] = {
    &bgp::BgpConfig::ssld, &bgp::BgpConfig::wrate, &bgp::BgpConfig::assertion,
    &bgp::BgpConfig::ghost_flushing};

/// protocol, a proxy over the BgpConfig's four enhancement flags: the
/// file names the enhancement the config runs; the wire carries all four.
struct Protocol {
  static void parse(std::string_view key, const std::string& text,
                    bgp::BgpConfig& c) {
    bgp::Enhancement e{};
    Enum<kProtocols>::parse(key, text, e);
    c = c.with(e);
  }
  static std::string format(const bgp::BgpConfig& c) {
    return Enum<kProtocols>::format(c.enhancement());
  }
};

/// origins: a comma-separated node list.
struct NodeList {
  static void parse(std::string_view key, const std::string& text,
                    std::vector<net::NodeId>& out) {
    if (text.ends_with(',')) bad(key, "has an empty entry: " + text);
    out.clear();
    std::istringstream items{text};
    for (std::string item; std::getline(items, item, ',');) {
      item.erase(0, item.find_first_not_of(" \t"));
      item.erase(item.find_last_not_of(" \t") + 1);
      if (item.empty()) bad(key, "has an empty entry: " + text);
      Uint<>::parse(key, item, out.emplace_back());
    }
  }
  static std::string format(const std::vector<net::NodeId>& v) {
    std::string text;
    for (const net::NodeId n : v) {
      text += (text.empty() ? "" : ",") + std::to_string(n);
    }
    return text;
  }
};

/// The event shapes the prelude only through whether the prelude
/// originates the prefix (every event but Tup).
void event_prelude(snap::Writer& w, const ScenarioBase& s) {
  w.b(s.event != EventKind::kTup);
}

/// The rel file shapes the prelude through its bytes, not its path, so an
/// edited file misses the prelude cache instead of warm-starting from the
/// old graph. An unreadable file hashes as empty; building its topology
/// throws before any prelude is cached.
void rel_file_prelude(snap::Writer& w, const ScenarioBase& s) {
  std::ifstream in{s.topology.rel_file, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>{in}, {}};
  w.u64(snap::fnv1a({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                     bytes.size()}));
}

// ---- wire: one lossless encoding per C++ type -----------------------------

template <typename T>
void put(snap::Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, sim::SimTime>) {
    w.time(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, bgp::BgpConfig>) {
    for (const auto flag : kFlags) w.b(v.*flag);
  } else if constexpr (requires { v.has_value(); }) {
    w.b(v.has_value());
    if (v) put(w, *v);
  } else if constexpr (requires { v.size(); }) {
    w.u64(v.size());
    for (const auto& x : v) put(w, x);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (sizeof(T) <= 4) {
    w.u32(static_cast<std::uint32_t>(v));
  } else {
    w.u64(static_cast<std::uint64_t>(v));
  }
}

template <typename T>
void get(snap::Reader& r, T& v) {
  if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, sim::SimTime>) {
    v = r.time();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, bgp::BgpConfig>) {
    for (const auto flag : kFlags) v.*flag = r.b();
  } else if constexpr (requires { v.has_value(); }) {
    v.reset();
    if (r.b()) get(r, v.emplace());
  } else if constexpr (requires { v.size(); }) {
    // Every entry takes at least a byte: a larger count is corrupt input.
    const std::uint64_t n = r.u64();
    if (n > r.remaining()) {
      throw snap::FormatError{"scenario list of " + std::to_string(n) +
                              " entries overruns its payload"};
    }
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) get(r, x);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    v = static_cast<T>(r.u8());
  } else if constexpr (sizeof(T) <= 4) {
    v = static_cast<T>(r.u32());
  } else {
    v = static_cast<T>(r.u64());
  }
}

// ---- rows -------------------------------------------------------------------

/// The member of `s` that the member-pointer chain `Path...` names.
template <auto... Path>
constexpr auto& at(auto& s) {
  return (s .* ... .* Path);
}

template <typename Owner, typename Codec, auto... Path>
constexpr Field<Owner> field(std::string_view key, Phase phase,
                             Exposure exposure = Exposure::kFile,
                             Prelude prelude = nullptr) {
  const auto parse = [](Owner& s, std::string_view k, const std::string& t) {
    auto& v = at<Path...>(s);
    if constexpr (requires { v.emplace(); }) {
      Codec::parse(k, t, v.emplace());
    } else {
      Codec::parse(k, t, v);
    }
  };
  // An unset optional, or an empty string or list, has no text.
  const auto format = [](const Owner& s) -> std::optional<std::string> {
    const auto& v = at<Path...>(s);
    std::string text;
    if constexpr (requires { v.has_value(); }) {
      if (v) text = Codec::format(*v);
    } else {
      text = Codec::format(v);
    }
    if (text.empty()) return std::nullopt;
    return text;
  };
  const auto write = [](snap::Writer& w, const Owner& s) {
    put(w, at<Path...>(s));
  };
  const auto read = [](snap::Reader& r, Owner& s) { get(r, at<Path...>(s)); };
  return {key, phase, exposure, parse, format, write, read, prelude};
}

using B = ScenarioBase;
using S = Scenario;
using Topo = TopologySpec;
using Delay = net::ProcessingDelay;
using Traffic = fwd::TrafficConfig;
using Bgp = bgp::BgpConfig;
using enum Phase;
using enum Exposure;

// In file and wire order. A row is a file key unless it says kWire.
constexpr Field<ScenarioBase> kSharedFields[] = {
    field<B, Enum<kTopologyKinds>, &B::topology, &Topo::kind>("topology",
                                                              kPrelude),
    field<B, Uint<>, &B::topology, &Topo::size>("size", kPrelude),
    field<B, Text, &B::topology, &Topo::rel_file>("rel_file", kPrelude, kFile,
                                                  &rel_file_prelude),
    field<B, Uint<>, &B::topology, &Topo::topo_seed>("topo_seed", kPrelude),
    field<B, Enum<kEventKinds>, &B::event>("event", kPrelude, kFile,
                                           &event_prelude),
    field<B, Uint<>, &B::seed>("seed", kPrelude),
    field<B, Uint<>, &B::destination>("destination", kPrelude),
    field<B, Uint<>, &B::tlong_link>("tlong_link", kEvent),
    field<B, Millis, &B::processing, &Delay::min>("processing_min_ms",
                                                  kPrelude),
    field<B, Millis, &B::processing, &Delay::max>("processing_max_ms",
                                                  kPrelude),
    field<B, Rate, &B::traffic, &Traffic::interval>("traffic_pps", kEvent),
    field<B, Uint<>, &B::traffic, &Traffic::ttl>("ttl", kEvent),
    field<B, Bool, &B::traffic, &Traffic::stagger>("stagger", kEvent, kWire),
    field<B, Seconds, &B::traffic_lead>("traffic_lead", kEvent, kWire),
    field<B, Seconds, &B::settle_margin>("settle_margin", kEvent, kWire),
    field<B, Seconds, &B::max_sim_time>("max_sim_time", kEvent, kWire),
    field<B, Enum<kRoundtrips>, &B::snap_roundtrip>("snap_roundtrip",
                                                    kObserver, kWire),
    field<B, Seconds, &B::snap_roundtrip_after>("snap_roundtrip_after",
                                               kObserver, kWire),
};

constexpr Field<Scenario> kBgpFields[] = {
    field<S, Protocol, &S::bgp>("protocol", kPrelude),
    field<S, Seconds, &S::bgp, &Bgp::mrai>("mrai", kPrelude),
    field<S, Real, &S::bgp, &Bgp::jitter_lo>("jitter_lo", kPrelude),
    field<S, Real, &S::bgp, &Bgp::jitter_hi>("jitter_hi", kPrelude),
    field<S, Seconds, &S::bgp, &Bgp::backup_caution>("caution", kPrelude),
    field<S, Bool, &S::policy_routing>("policy", kPrelude),
    field<S, Uint<1>, &S::prefixes>("prefixes", kPrelude),
    field<S, NodeList, &S::origins>("origins", kPrelude),
    field<S, Number<1, true>, &S::flap_interval>("flap_s", kEvent),
};

}  // namespace

std::span<const Field<ScenarioBase>> shared_fields() { return kSharedFields; }
std::span<const Field<Scenario>> bgp_fields() { return kBgpFields; }

std::uint64_t prelude_hash(const ScenarioBase& s,
                           const std::function<void(snap::Writer&)>& config) {
  snap::Writer w;
  for (const Field<ScenarioBase>& f : kSharedFields) {
    if (f.phase == Phase::kPrelude) f.write_prelude(w, s);
  }
  w.b(survivable_destination(s.topology.kind, s.event,
                             s.destination.has_value()));
  config(w);
  return snap::fnv1a(w.bytes());
}

}  // namespace bgpsim::core
