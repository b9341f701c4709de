// One BGP speaker (one AS / router in the study).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/config.hpp"
#include "bgp/decision.hpp"
#include "bgp/messages.hpp"
#include "bgp/mrai.hpp"
#include "bgp/rib.hpp"
#include "fwd/fib.hpp"
#include "net/channel.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::bgp {

/// The path-vector protocol machine.
///
/// Inbound work (updates, session events) must be fed through handle_update
/// / handle_session *after* the node's processing delay — BgpNetwork wires a
/// net::ProcessingQueue in front of each speaker. Outbound messages go to
/// the Transport immediately (sending is free; receiving costs CPU).
class Speaker {
 public:
  struct Hooks {
    /// Every UPDATE put on the wire (the convergence-time clock).
    std::function<void(net::NodeId from, net::NodeId to, const UpdateMsg&)>
        on_update_sent{};
    /// Loc-RIB best-path changes (nullopt = destination now unreachable).
    std::function<void(net::NodeId node, net::Prefix,
                       const std::optional<AsPath>& best)>
        on_best_changed{};
    /// Every UPDATE accepted off the wire (after the stray-peer filter,
    /// before the decision process).
    std::function<void(net::NodeId node, net::NodeId from, const UpdateMsg&)>
        on_update_received{};
    /// Session to `peer` observed up/down by this speaker.
    std::function<void(net::NodeId node, net::NodeId peer, bool up)>
        on_session_changed{};
    /// An MRAI timer toward `peer` expired; `was_pending` says whether a
    /// deferred decision was waiting behind it.
    std::function<void(net::NodeId node, net::NodeId peer, net::Prefix,
                       bool was_pending)>
        on_mrai_expired{};
  };

  /// `store` binds this speaker's RIB facades to the network's shared SoA
  /// store (row `row`); nullptr (the default) keeps a private store, for
  /// standalone construction in tests.
  Speaker(net::NodeId self, BgpConfig config, sim::Simulator& simulator,
          net::Transport& transport, fwd::Fib& fib, sim::Rng rng,
          rib::LocalRibs* store = nullptr, rib::SpeakerId row = 0);

  /// Establish sessions with the given peers (initially up neighbors).
  void set_peers(const std::vector<net::NodeId>& peers);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Originate `prefix` locally (the destination AS). Advertises (self) to
  /// every peer.
  void originate(net::Prefix prefix);

  /// Withdraw a locally originated prefix — the study's Tdown event.
  void withdraw_origin(net::Prefix prefix);

  /// Originate several prefixes in one shot. In multiprefix mode the
  /// resulting advertisements are staged and flushed as one batched
  /// message per peer.
  void originate_batch(const std::vector<net::Prefix>& prefixes);

  /// Withdraw several locally originated prefixes at once — the
  /// correlated-failure Tdown (full-table event at one origin).
  void withdraw_origin_batch(const std::vector<net::Prefix>& prefixes);

  /// Inbound UPDATE from `from` (call after processing delay).
  void handle_update(net::NodeId from, const UpdateMsg& update);

  /// Inbound batched UPDATEs from `from` (one transport message, one
  /// processing-delay draw). Applies every contained update to the RIB,
  /// then runs ONE decision pass per touched prefix — the batched
  /// decision processing a shared SoA column block makes cheap.
  void handle_update_batch(net::NodeId from, const UpdateBatch& batch);

  /// Session to `peer` went down/up (call after processing delay).
  void handle_session(net::NodeId peer, bool up);

  // ---- Introspection --------------------------------------------------

  [[nodiscard]] net::NodeId id() const { return self_; }
  [[nodiscard]] const BgpConfig& config() const { return config_; }
  [[nodiscard]] const AdjRibIn& adj_rib_in() const { return adj_rib_in_; }
  [[nodiscard]] const LocRib& loc_rib() const { return loc_rib_; }
  [[nodiscard]] const std::set<net::NodeId>& peers() const { return peers_; }
  [[nodiscard]] bool originates(net::Prefix prefix) const {
    return originated_.contains(prefix);
  }

  /// True when neither an MRAI timer holds a deferred decision nor a
  /// caution window holds a deferred backup adoption — i.e. this speaker
  /// will change nothing further unless new input arrives.
  [[nodiscard]] bool quiescent() const {
    return !mrai_.any_pending() && caution_lost_length_.empty();
  }

  /// True while any MRAI timer is running (even without pending work).
  [[nodiscard]] bool timers_running() const {
    return mrai_.running_count() > 0;
  }

  struct Counters {
    std::uint64_t announcements_sent = 0;
    std::uint64_t withdrawals_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t poison_reverse_discards = 0;
    std::uint64_t assertion_removals = 0;
    std::uint64_t ghost_flushes = 0;
    std::uint64_t ssld_conversions = 0;
    std::uint64_t best_path_changes = 0;
    std::uint64_t caution_holds = 0;  // backup adoptions deferred
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Checkpoint codec: every mutable protocol field (RNG, session set,
  /// origins, RIBs, MRAI bookkeeping, caution holds, advertised mirror,
  /// counters) in a fixed deterministic order.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  /// What a peer currently believes we advertised.
  struct Advertised {
    enum class Kind { kNotSent, kAnnounced, kWithdrawn } kind = Kind::kNotSent;
    AsPath path;  // valid when kind == kAnnounced
  };

  /// Stages outbound updates for the enclosing handler in multiprefix
  /// mode; the destructor flushes them grouped per peer. A no-op when
  /// multiprefix is off or a scope is already active, so single-prefix
  /// runs execute exactly the unbatched send path.
  class StagingScope {
   public:
    explicit StagingScope(Speaker& s)
        : s_{s}, active_{s.config_.multiprefix && !s.staging_} {
      if (active_) s_.staging_ = true;
    }
    ~StagingScope() {
      if (active_) {
        s_.staging_ = false;
        s_.flush_staged();
      }
    }
    StagingScope(const StagingScope&) = delete;
    StagingScope& operator=(const StagingScope&) = delete;

   private:
    Speaker& s_;
    bool active_;
  };

  /// The RIB-mutation half of handle_update (everything but the decision
  /// pass), shared with batched delivery.
  void apply_update(net::NodeId from, const UpdateMsg& update);
  /// Send staged updates, grouped per peer (peers ascending, per-peer
  /// message order preserved); a group of one goes out as a plain
  /// UpdateMsg, so wire shapes only change when batching actually packs.
  void flush_staged();

  void run_decision(net::Prefix prefix);
  void advertise_to_all(net::Prefix prefix);
  void consider_send(net::NodeId peer, net::Prefix prefix);
  /// consider_send with the Loc-RIB lookup hoisted: burst delivery passes
  /// one lookup across every same-prefix expiry in the batch (nothing in
  /// the send path mutates the Loc-RIB).
  void consider_send_with(net::NodeId peer, net::Prefix prefix,
                          const AsPath* loc);
  void send_update(net::NodeId peer, net::Prefix prefix, UpdateMsg update);
  void on_mrai_expired(net::NodeId peer, net::Prefix prefix, bool was_pending);
  /// Batched delivery of coincident MRAI expiries (wheel backend): hooks
  /// and sends run per item in exact firing order — the observable stream
  /// is identical to sequential delivery — but the decision inputs are
  /// fetched once per prefix run instead of once per expiry.
  void on_mrai_burst(const std::vector<MraiTimers::Expiry>& batch);
  void ghost_flush(net::Prefix prefix);
  [[nodiscard]] sim::SimTime jittered_mrai();

  /// The update we currently want `peer` to hold (SSLD applied); `loc` is
  /// the caller's Loc-RIB lookup for `prefix`.
  [[nodiscard]] UpdateMsg desired_update(net::NodeId peer, net::Prefix prefix,
                                         const AsPath* loc);
  [[nodiscard]] bool already_advertised(net::NodeId peer, net::Prefix prefix,
                                        const UpdateMsg& desired) const;

  net::NodeId self_;
  BgpConfig config_;
  sim::Simulator& sim_;
  net::Transport& transport_;
  fwd::Fib& fib_;
  sim::Rng rng_;
  Hooks hooks_;

  std::set<net::NodeId> peers_;
  std::set<net::Prefix> originated_;
  AdjRibIn adj_rib_in_;
  LocRib loc_rib_;
  MraiTimers mrai_;
  /// Prefixes under backup caution: adoption of paths longer than the
  /// recorded lost length is suppressed until the caution timer fires.
  std::map<net::Prefix, std::size_t> caution_lost_length_;
  std::map<std::pair<net::NodeId, net::Prefix>, Advertised> advertised_;
  Counters counters_;
  /// Multiprefix staging state: while a StagingScope is active, send_update
  /// appends here instead of hitting the transport. Always empty between
  /// scheduler events, so it never enters the checkpoint codec.
  bool staging_ = false;
  std::vector<std::pair<net::NodeId, UpdateMsg>> staged_;
};

}  // namespace bgpsim::bgp
