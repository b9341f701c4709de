// One description of every Scenario value field.
//
// Each row gives a field's key, the member, its codec (how its text is
// validated and printed; the wire encoding follows from the member's type),
// the phase of the run it shapes and where it is exposed. The scenario
// file parser and formatter (core/scenario_file.hpp), the svc wire codec
// (svc::write_scenario / read_scenario) and the prelude hash of all three
// drivers walk these rows and name no field themselves.
// A new Scenario knob is one row in scenario_fields.cpp, plus a draw in
// core::fuzz_scenario if the fuzzer should vary it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/scenario.hpp"
#include "snap/codec.hpp"

namespace bgpsim::core {

/// What a field shapes. kPrelude: the converged state before the event, so
/// the prelude hash covers it; kEvent: the event and what follows it;
/// kObserver: what the run reports about itself, never its routing.
enum class Phase : std::uint8_t { kPrelude, kEvent, kObserver };

/// Where a field appears. Every field crosses the svc wire; kFile fields
/// are also scenario-file keys, and so CLI flags.
enum class Exposure : std::uint8_t { kWire, kFile };

using Prelude = void (*)(snap::Writer&, const ScenarioBase&);

template <typename Owner>
struct Field {
  std::string_view key;
  Phase phase;
  Exposure exposure;
  /// Set the field from its text; throws std::runtime_error naming the key
  /// on a malformed or out-of-range value.
  void (*parse)(Owner&, std::string_view key, const std::string& text);
  /// The field's text, which parses back to the same value; nullopt when
  /// the field is unset (an empty optional, list or path).
  std::optional<std::string> (*format)(const Owner&);
  /// The field's wire bytes, lossless for any value.
  void (*write)(snap::Writer&, const Owner&);
  void (*read)(snap::Reader&, Owner&);
  /// What the prelude hash takes instead of the wire bytes: set for the
  /// event (only whether the prelude originates the prefix) and the rel
  /// file (its content, not its path).
  Prelude prelude = nullptr;

  void write_prelude(snap::Writer& w, const Owner& s) const {
    prelude != nullptr ? prelude(w, s) : write(w, s);
  }
};

/// The rows of ScenarioBase, which all three drivers share.
[[nodiscard]] std::span<const Field<ScenarioBase>> shared_fields();
/// The rows only the BGP driver's Scenario has.
[[nodiscard]] std::span<const Field<Scenario>> bgp_fields();

/// Call `fn` on every row of a Scenario: the shared rows, then the BGP
/// rows. This order is the file's key order and the wire's field order.
template <typename Fn>
void for_each_field(Fn&& fn) {
  for (const Field<ScenarioBase>& f : shared_fields()) fn(f);
  for (const Field<Scenario>& f : bgp_fields()) fn(f);
}

/// The prelude hash of every driver: the prelude-phase shared rows of `s`,
/// whether its destination must survive losing a link (the predicate
/// choose_destination uses), then `config`, the driver's own prelude
/// fields. Equal hashes and seeds converge to bit-identical phase-1 state.
[[nodiscard]] std::uint64_t prelude_hash(
    const ScenarioBase& s, const std::function<void(snap::Writer&)>& config);

}  // namespace bgpsim::core
