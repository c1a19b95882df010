// IPsec ESP endpoint in tunnel mode (RFC 4303) — the NF the paper's
// validation runs as VM / Docker / native (Strongswan, "ESP protocol in
// tunnel mode").
//
// Datapath is functionally real. Two ESP transforms are supported per
// tunnel (config key `esp_transform`):
//
//   "gcm" (default)  AES-128-GCM (RFC 4106): CTR encryption + GHASH in
//                    one pass, 8-byte explicit IV (the sequence counter),
//                    16-byte tag, 4-byte salt from the tail of a 40-hex
//                    enc_key. Both directions pipeline on AES-NI/PCLMUL,
//                    which is why it is the default.
//   "cbc-hmac"       AES-128-CBC (RFC 3602) + HMAC-SHA256-128 (RFC 4868),
//                    the classic transform; CBC encryption is
//                    chain-serial.
//
// Both share ESP trailer padding, sequence numbers and a 64-entry
// anti-replay window. Sequence numbers are 64-bit throughout; with
// `esn: on` (RFC 4304 extended sequence numbers) only the low 32 bits
// travel on the wire and the receiver recovers the high half from its
// replay window (RFC 4304 Appendix A) — the recovered seq-hi feeds the
// integrity check (GCM AAD per RFC 4106 §5, or the implicit HMAC
// suffix per RFC 4303 §2.2.1), so a wrong inference fails
// authentication instead of advancing the window. Port 0 carries
// plaintext ("red") traffic, port 1 the encrypted ("black") side.
//
// SA lifecycle (RFC 4303 §3.3.3 + the usual IKE discipline, driven here
// by configuration updates instead of a key-exchange daemon):
//
//   ACTIVE ──soft──▶ REKEYING ──cutover──▶ DRAINING ──deadline──▶ DEAD
//
// Every SA generation carries soft/hard lifetimes (packets, bytes) and a
// sequence-headroom soft trigger; the non-ESN sequence space hard-stops
// at 2^32-1 — the counter never cycles, the packet that would reuse a
// sequence number is dropped and counted (`lifetime_drops`). Rekeying is
// make-before-break: staging new keymat (config keys `rekey_*`) installs
// the next-generation inbound SA immediately — the SAD holds old and new
// keyed by SPI, so in-flight packets of either generation drain without
// loss — while the outbound side keeps the old SA until its soft
// threshold trips and then cuts over atomically. The superseded inbound
// SA keeps accepting (DRAINING) until its drain deadline passes, then is
// retired (DEAD) and its SPI removed from the SAD.
//
// Each context holds an independent SA pair, which is what makes the
// function sharable: multiple service graphs terminate their own tunnels
// in one running instance, isolated per internal path. The SAD is keyed
// by (context, SPI) in flat hash maps, so inbound resolution stays O(1)
// at thousands of tunnels.
#pragma once

#include <array>
#include <initializer_list>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "exec/worker_slot.hpp"
#include "json/json.hpp"
#include "nnf/network_function.hpp"
#include "packet/headers.hpp"
#include "util/atomics.hpp"
#include "util/sync.hpp"

namespace nnfv::nnf {

/// Which ESP transform a tunnel runs (RFC 4106 AES-GCM vs RFC 3602+4868
/// AES-CBC + HMAC-SHA256).
enum class EspTransform { kGcm, kCbcHmac };

/// SA lifecycle state. kRekeying and kDraining still carry traffic —
/// kRekeying marks an outbound SA past its soft lifetime (new keymat
/// wanted), kDraining an inbound SA superseded by a rekey cutover that
/// keeps accepting late in-flight packets until its drain deadline.
enum class SaState { kActive, kRekeying, kDraining, kDead };

std::string_view sa_state_name(SaState state);

/// Soft/hard lifetime thresholds shared by a tunnel's SAs. 0 disables a
/// threshold. Soft expiry flags the SA for rekey (and cuts over to staged
/// keymat when present); hard expiry drops traffic with a counted reason.
struct SaLifetime {
  std::uint64_t soft_packets = 0;
  std::uint64_t hard_packets = 0;
  std::uint64_t soft_bytes = 0;
  std::uint64_t hard_bytes = 0;
  /// Soft-trigger this many sequence numbers before the sequence space
  /// ends (2^32-1 without ESN). Always-on: sequence exhaustion is the one
  /// lifetime RFC 4303 does not let an SA opt out of.
  std::uint64_t seq_headroom = 4096;
};

/// One unidirectional security association.
///
/// Concurrency (docs/datapath.md §6): mutable fields are relaxed
/// atomics so datapath workers on different shards may share an SA.
/// The outbound sequence is claimed with an atomic increment (every
/// packet gets a unique seq regardless of which worker sends it); the
/// replay window is single-writer by construction — RSS pins all ESP
/// ingress of one outer IP pair, hence one SPI, to one worker.
struct SecurityAssociation {
  std::uint32_t spi = 0;
  bool esn = false;  ///< RFC 4304 64-bit extended sequence numbers
  util::Relaxed<SaState> state = SaState::kActive;
  util::RelaxedCounter seq;  ///< last sent (out) sequence, full 64-bit
  // Anti-replay (inbound only): highest authenticated 64-bit sequence
  // (seq-hi || seq-lo under ESN) + sliding bitmap below it.
  util::RelaxedCounter replay_top;
  util::RelaxedCounter replay_bitmap;
  // Lifetime usage + per-SA failure accounting.
  util::RelaxedCounter packets;
  util::RelaxedCounter bytes;
  util::RelaxedCounter auth_fail;
  util::RelaxedCounter replay_drops;
  util::RelaxedCounter lifetime_drops;
  util::RelaxedCounter malformed;

  /// Highest sequence number this SA may ever send (RFC 4303 §3.3.3:
  /// the counter must not cycle). 2^32-1 without ESN; the full 64-bit
  /// space under ESN.
  [[nodiscard]] std::uint64_t seq_ceiling() const {
    return esn ? ~0ULL : 0xFFFFFFFFULL;
  }
};

struct IpsecStats {
  util::RelaxedCounter encapsulated;
  util::RelaxedCounter decapsulated;
  util::RelaxedCounter auth_failures;
  util::RelaxedCounter replay_drops;
  util::RelaxedCounter malformed;
  util::RelaxedCounter no_sa;
  /// Packets dropped by a hard lifetime / sequence-exhaustion stop.
  util::RelaxedCounter lifetime_drops;
  util::RelaxedCounter rekeys_started;    ///< staged keymat installed
  util::RelaxedCounter rekeys_completed;  ///< outbound cutover performed
  util::RelaxedCounter sas_retired;       ///< draining inbound SAs expired
};

class IpsecEndpoint : public NetworkFunction {
 public:
  static constexpr std::size_t kIvSize = 16;   ///< cbc-hmac explicit IV
  static constexpr std::size_t kIcvSize = 16;  ///< HMAC-SHA256-128
  static constexpr std::size_t kGcmIvSize = 8;   ///< RFC 4106 explicit IV
  static constexpr std::size_t kGcmIcvSize = 16;  ///< full GCM tag
  static_assert(kIcvSize == kGcmIcvSize, "both transforms share one ICV size");
  static constexpr std::uint32_t kReplayWindow = 64;  ///< anti-replay slots

  IpsecEndpoint() = default;

  [[nodiscard]] std::string_view type() const override { return "ipsec"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }

  /// Config keys (per context):
  ///   local_ip, peer_ip       tunnel endpoints (outer header)
  ///   spi_out, spi_in         decimal SPIs
  ///   esp_transform           "gcm" (default) or "cbc-hmac"
  ///   esn                     "on" or "off" (default): RFC 4304 64-bit
  ///                           extended sequence numbers on both SAs
  ///   enc_key                 32 hex chars (AES-128), or 40 hex chars
  ///                           (AES-128 key + 4-byte GCM salt, RFC 4106
  ///                           §8.1 keymat order; salt is zero when only
  ///                           32 chars are given)
  ///   auth_key                64 hex chars (HMAC-SHA256; cbc-hmac only)
  ///   life_soft_packets, life_hard_packets, life_soft_bytes,
  ///   life_hard_bytes         decimal lifetime thresholds (0 = off)
  ///   seq_headroom            sequence soft-trigger distance (default
  ///                           4096)
  ///   drain_ns                how long a superseded inbound SA keeps
  ///                           accepting after cutover (default 1s)
  ///   rekey_spi_out, rekey_spi_in, rekey_enc_key, [rekey_auth_key],
  ///   [rekey_cutover]         stage next-generation keymat
  ///                           (make-before-break). The new inbound SA
  ///                           accepts immediately; outbound cuts over at
  ///                           the soft threshold, or on the next packet
  ///                           with rekey_cutover=now (default: soft).
  ///   outer_src_mac, outer_dst_mac, inner_src_mac, inner_dst_mac (optional)
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  /// The context -> tunnel resolution (hash lookup + configured checks),
  /// the lock, the drain-deadline sweep and the staged-cutover check
  /// happen once for the whole burst instead of per packet; the cached
  /// key schedules and HMAC midstate then serve every frame.
  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  util::Status remove_context(ContextId ctx) override;

  /// Endpoint counters, aggregated across the per-worker stat shards
  /// (each datapath worker bumps only its own shard; see
  /// docs/datapath.md §6).
  [[nodiscard]] IpsecStats stats() const;

  /// Live status for the REST path (GET .../VNFs/{nf}/stats): endpoint
  /// counters, SAD size, and the context's SA generations with state,
  /// lifetime usage and per-SA failure counters.
  [[nodiscard]] json::Value describe_stats(ContextId ctx) const override;

  /// Test hooks: corrupting/steering SA state is easier through a
  /// reference (window edge cases, ESN rollover need exact sequences).
  SecurityAssociation* inbound_sa(ContextId ctx);
  SecurityAssociation* outbound_sa(ContextId ctx);
  SecurityAssociation* staged_outbound_sa(ContextId ctx);
  SecurityAssociation* staged_inbound_sa(ContextId ctx);
  SecurityAssociation* draining_sa(ContextId ctx);
  /// Number of live inbound (context, SPI) entries across all tunnels.
  [[nodiscard]] std::size_t sad_size() const { return sad_.size(); }

 private:
  /// Per-generation key material: raw keys plus the precomputed AES
  /// schedule, GCM GHASH table and HMAC ipad midstate that must not be
  /// derived per packet. Both directions of a generation share one
  /// enc_key/auth_key (single-key config), so one bundle serves the SA
  /// pair; a rekey creates a fresh bundle and the draining inbound SA
  /// keeps a reference to the superseded one.
  struct Keymat {
    std::array<std::uint8_t, 16> enc_key{};
    std::array<std::uint8_t, 4> salt{};
    std::array<std::uint8_t, 32> auth_key{};
    bool have_enc_key = false;
    std::optional<crypto::Aes> cipher;
    std::optional<crypto::GcmContext> gcm;
    std::optional<crypto::HmacSha256> hmac_tmpl;  ///< ipad absorbed

    /// (Re)expands schedules from the raw keys.
    util::Status prepare();
  };

  /// Staged next-generation SA pair (make-before-break): inbound is live
  /// in the SAD from the moment of staging; outbound waits for cutover.
  struct StagedRekey {
    SecurityAssociation out_sa;
    SecurityAssociation in_sa;
    std::shared_ptr<Keymat> keymat;
    bool immediate = false;  ///< rekey_cutover=now
  };

  /// Superseded inbound SA draining in-flight packets after cutover.
  struct DrainingSa {
    SecurityAssociation sa;
    std::shared_ptr<Keymat> keymat;
    sim::SimTime deadline = 0;
  };

  struct Tunnel {
    packet::Ipv4Address local_ip;
    packet::Ipv4Address peer_ip;
    SecurityAssociation out_sa;
    SecurityAssociation in_sa;
    std::shared_ptr<Keymat> keymat;
    SaLifetime lifetime;
    sim::SimTime drain_ns = sim::kSecond;
    std::optional<StagedRekey> staged;
    std::optional<DrainingSa> draining;
    EspTransform transform = EspTransform::kGcm;
    packet::MacAddress outer_src_mac = packet::MacAddress::from_id(0xE0);
    packet::MacAddress outer_dst_mac = packet::MacAddress::from_id(0xE1);
    packet::MacAddress inner_src_mac = packet::MacAddress::from_id(0xE2);
    packet::MacAddress inner_dst_mac = packet::MacAddress::from_id(0xE3);
    bool configured = false;
    /// SPIs this tunnel holds in the overload-shedding control-priority
    /// registry (exec/priority.hpp) while a rekey is in flight: staged
    /// at stage_rekey, released when the superseded SA retires (or the
    /// context goes away). ESP frames on these SPIs survive load
    /// shedding, so a congested node can still finish a rekey.
    std::vector<std::uint32_t> control_spis;
  };

  /// Which generation a SAD entry resolves to within its tunnel.
  enum class SadSlot : std::uint8_t { kCurrent, kStaged, kDraining };

  // --- SAD maintenance (inbound (ctx, SPI) -> generation) -------------
  static std::uint64_t sad_key(ContextId ctx, std::uint32_t spi) {
    return (static_cast<std::uint64_t>(ctx) << 32) | spi;
  }
  void sad_insert(ContextId ctx, std::uint32_t spi, SadSlot slot);
  void sad_erase(ContextId ctx, std::uint32_t spi);

  // --- control-priority SPI registration (overload shedding) ----------
  /// Replaces the tunnel's registered control SPIs with `spis`.
  static void register_control_spis(Tunnel& tunnel,
                                    std::initializer_list<std::uint32_t> spis);
  /// Drops every control SPI the tunnel still holds registered.
  static void unregister_control_spis(Tunnel& tunnel);

  // --- lifecycle ------------------------------------------------------
  /// Retires the draining SA once its deadline passed; called once per
  /// process_burst() entry.
  void expire_draining(ContextId ctx, Tunnel& tunnel, sim::SimTime now);
  /// Atomically switches outbound to the staged generation and moves the
  /// superseded inbound SA into draining.
  void cutover(ContextId ctx, Tunnel& tunnel, sim::SimTime now);
  /// Pre-encap gate: performs a due cutover, enforces hard stops
  /// (sequence exhaustion, hard lifetimes) and flags soft expiry.
  /// Returns nullptr (packet must be dropped, already counted) or the
  /// outbound SA to use.
  SecurityAssociation* outbound_gate(ContextId ctx, Tunnel& tunnel,
                                     sim::SimTime now);

  /// The one encap routine and the one decap routine, for both
  /// transforms. Each gathers up to crypto::CryptoBackend::kMaxMbLanes
  /// frames, rebuilt in place, into a lane array and flushes it through
  /// one batched crypto pass (GCM seal_mb/open_mb, or in-place CBC + HMAC
  /// per lane); decap then applies verdicts, replay checks, CBC
  /// decryption and trailer stripping in frame order. `lifecycle` (the
  /// burst failed fast_path_ok) runs one lane at a time, with
  /// outbound_gate before every encap; so does ESN decap, whose seq-hi
  /// recovery reads the replay window. Output is appended to the caller's
  /// burst-wide `out`.
  void encapsulate(ContextId ctx, Tunnel& tunnel, sim::SimTime now,
                   bool lifecycle, packet::PacketBurst& burst,
                   std::vector<NfOutput>& out);
  void decapsulate(ContextId ctx, Tunnel& tunnel, bool lifecycle,
                   packet::PacketBurst& burst, std::vector<NfOutput>& out);

  /// Shared encap prologue: validates the red-side frame as
  /// Ethernet+IPv4 and returns the inner IP packet (trimmed to its
  /// total length); counts `malformed` and returns nullopt on failure.
  std::optional<std::span<const std::uint8_t>> parse_inner_ipv4(
      const packet::PacketBuffer& frame);

  /// Shared encap epilogue start: writes Eth | outer IPv4 | ESP header
  /// into the first kEspOffset + kEspHeaderSize bytes of `buf` — the
  /// header area the transforms reclaim from the input frame's headroom
  /// via push_front (no output-frame allocation, no payload copy).
  /// `esp_payload` sizes the outer IP total-length field. `seq` is the
  /// sequence number this packet claimed with its atomic increment —
  /// sa.seq may already be ahead when several workers share the SA.
  static void write_outer_headers(const Tunnel& tunnel,
                                  const SecurityAssociation& sa,
                                  std::uint64_t seq, std::size_t esp_payload,
                                  std::span<std::uint8_t> buf);

  /// Shared decap prologue: validates the black-side frame down to the
  /// ESP area (outer headers, ESP proto, destination, minimum payload)
  /// and resolves the inbound SA by SPI through the SAD — current,
  /// staged and draining generations all match, which is what makes the
  /// rekey switchover lossless. Counts malformed/no_sa/lifetime and
  /// returns nullopt on failure. `sequence` is the full 64-bit sequence:
  /// under ESN the high half is recovered from the replay window
  /// (RFC 4304 Appendix A) here and reused for the AAD/ICV input and the
  /// replay update. Every size check happens before any state mutation.
  struct EspIngress {
    std::span<const std::uint8_t> esp_area;
    std::size_t esp_off = 0;  ///< offset of esp_area within the frame
    std::uint64_t sequence = 0;
    SecurityAssociation* sa = nullptr;
    Keymat* keymat = nullptr;
  };
  std::optional<EspIngress> parse_esp_ingress(
      ContextId ctx, Tunnel& tunnel, const packet::PacketBuffer& frame,
      std::size_t min_esp_payload);

  /// Shared decap epilogue: `inner` views the decrypted ESP payload
  /// (inner IP packet | pad | pad_len | next_header) inside the frame's
  /// pooled segment. Validates + strips the trailer (pad bytes
  /// 1..pad_len, next_header IPv4, pad_len bounded by the payload) with
  /// trim(), then rebuilds the red-side Ethernet header in the headroom
  /// the stripped outer headers left behind — no copy. Counts
  /// `malformed` (endpoint + per-SA) and emits nothing on failure.
  void emit_inner(const Tunnel& tunnel, SecurityAssociation& sa,
                  packet::PacketBuffer&& inner, std::vector<NfOutput>& out);

  static constexpr std::size_t kEspOffset =
      packet::kEthernetHeaderSize + packet::kIpv4MinHeaderSize;

  /// Applies the staged-rekey config keys collected by configure().
  util::Status stage_rekey(ContextId ctx, Tunnel& tunnel,
                           const NfConfig& rekey);

  /// RFC-style sliding window over the full 64-bit sequence; returns
  /// false (and drops) on replay.
  static bool replay_check_and_update(SecurityAssociation& sa,
                                      std::uint64_t seq);

  /// True when `tunnel` is in plain steady state for `frames` more
  /// packets on `in_port`: no staged/draining generation, no byte/packet
  /// lifetimes configured, the relevant SA ACTIVE and (outbound) far
  /// enough from its sequence ceiling that neither the soft headroom
  /// trigger nor exhaustion can trip inside the burst. Under these
  /// conditions the datapath runs under a shared lock — counters are
  /// atomic, replay windows are single-writer by RSS — and anything
  /// else retries under the exclusive lock with the exact
  /// single-threaded lifecycle semantics.
  [[nodiscard]] static bool fast_path_ok(const Tunnel& tunnel,
                                         NfPortIndex in_port,
                                         std::size_t frames);

  std::unordered_map<ContextId, Tunnel> tunnels_;
  /// Inbound SAD: (context, SPI) -> generation. O(1) lookup regardless
  /// of tunnel count; entries exist only for configured inbound SAs.
  std::unordered_map<std::uint64_t, SadSlot> sad_;

  /// Structural lock: process paths hold it shared in steady state,
  /// exclusive for lifecycle transitions (cutover, drain expiry, hard
  /// stops); configure()/remove_context() are exclusive. Protects
  /// tunnels_/sad_ topology and SA generation swaps.
  mutable util::SharedMutex mutex_;

  /// Endpoint counters sharded per worker slot so the hot path never
  /// shares a stats cache line across workers; stats() aggregates.
  struct alignas(64) StatsShard {
    IpsecStats stats;
  };
  std::array<StatsShard, exec::kMaxSlots> stats_shards_;
  IpsecStats& stats_shard() {
    return stats_shards_[exec::current_worker_slot()].stats;
  }
};

}  // namespace nnfv::nnf
