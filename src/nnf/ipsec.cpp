#include "nnf/ipsec.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "exec/priority.hpp"
#include "packet/checksum.hpp"
#include "packet/flow_key.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {

namespace {

util::Status parse_key(const std::string& hex, std::span<std::uint8_t> out) {
  std::vector<std::uint8_t> bytes;
  if (!util::hex_decode(hex, bytes) || bytes.size() != out.size()) {
    return util::invalid_argument("ipsec: key must be " +
                                  std::to_string(out.size() * 2) +
                                  " hex chars");
  }
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return util::Status::ok();
}

/// 32 hex chars = AES-128 key; 40 = key + 4-byte GCM salt (the RFC 4106
/// §8.1 keying-material order). cbc-hmac ignores the salt.
util::Status parse_enc_key(const std::string& hex,
                           std::array<std::uint8_t, 16>& key,
                           std::array<std::uint8_t, 4>& salt) {
  std::vector<std::uint8_t> bytes;
  if (!util::hex_decode(hex, bytes) ||
      (bytes.size() != 16 && bytes.size() != 20)) {
    return util::invalid_argument(
        "ipsec: enc_key must be 32 hex chars (AES-128) or 40 (AES-128 "
        "+ GCM salt)");
  }
  std::copy_n(bytes.begin(), 16, key.begin());
  if (bytes.size() == 20) {
    std::copy_n(bytes.begin() + 16, 4, salt.begin());
  } else {
    salt.fill(0);
  }
  return util::Status::ok();
}

util::Status parse_spi(const std::string& key, const std::string& value,
                       std::uint32_t& out) {
  std::uint64_t spi = 0;
  if (!util::parse_u64(value, spi) || spi == 0 || spi > 0xFFFFFFFFULL) {
    return util::invalid_argument("ipsec: bad " + key + " '" + value + "'");
  }
  out = static_cast<std::uint32_t>(spi);
  return util::Status::ok();
}

util::Status parse_mac(const std::string& text, packet::MacAddress& out) {
  auto mac = packet::MacAddress::parse(text);
  if (!mac.has_value()) {
    return util::invalid_argument("ipsec: bad MAC '" + text + "'");
  }
  out = *mac;
  return util::Status::ok();
}

util::Status parse_count(const std::string& key, const std::string& value,
                         std::uint64_t& out) {
  if (!util::parse_u64(value, out)) {
    return util::invalid_argument("ipsec: bad " + key + " '" + value + "'");
  }
  return util::Status::ok();
}

/// Deterministic unpredictable IV: AES-encrypt the (SPI, seq) block.
void derive_iv(const crypto::Aes& aes, std::uint32_t spi, std::uint64_t seq,
               std::uint8_t iv[16]) {
  std::uint8_t block[16] = {};
  util::store_be32(block, spi);
  util::store_be64(block + 8, seq);
  aes.encrypt_block(block, iv);
}

/// RFC 4304 Appendix A seq-hi recovery: given the 32-bit seq-lo off the
/// wire and the highest authenticated sequence (replay_top), infer the
/// high half that places the packet inside or above the replay window.
/// The result feeds the integrity check, so a wrong inference (a seq-lo
/// replayed from another 2^32 cycle) fails authentication rather than
/// advancing the window — recovery itself never trusts the wire.
std::uint64_t esn_recover_seq(const SecurityAssociation& sa,
                              std::uint32_t seql) {
  constexpr std::uint32_t kWindow = IpsecEndpoint::kReplayWindow;
  const auto tl = static_cast<std::uint32_t>(sa.replay_top);
  const auto th = static_cast<std::uint32_t>(sa.replay_top >> 32);
  std::uint32_t seqh;
  if (tl >= kWindow - 1) {
    // Window lies within one seq-lo cycle: a seq-lo below the window's
    // bottom can only be the *next* cycle.
    seqh = seql >= tl - (kWindow - 1) ? th : th + 1;
  } else {
    // Window straddles a seq-lo wrap: large seq-lo values belong to the
    // previous cycle (the subtraction wraps mod 2^32 on purpose).
    seqh = seql >= tl - (kWindow - 1) ? th - 1 : th;
  }
  return (static_cast<std::uint64_t>(seqh) << 32) | seql;
}

/// Integrity-check sequence material. Without ESN this reproduces the
/// 8-byte wire ESP header (SPI || seq-lo); with ESN it is
/// SPI || seq-hi || seq-lo (12 bytes, RFC 4106 §5) — seq-hi never
/// appears on the wire, which is exactly what binds the receiver's
/// recovered value into the tag. Returns the AAD length.
std::size_t esp_aad(const SecurityAssociation& sa, std::uint64_t seq,
                    std::uint8_t aad[12]) {
  util::store_be32(aad, sa.spi);
  if (sa.esn) {
    util::store_be64(aad + 4, seq);
    return 12;
  }
  util::store_be32(aad + 4, static_cast<std::uint32_t>(seq));
  return 8;
}

/// GCM nonce: (salt ^ SPI) || explicit IV. The two directions of a
/// tunnel share one enc_key + salt here (single `enc_key` config), so
/// the per-direction SPI MUST feed the nonce — otherwise the initiator's
/// packet N and the responder's packet N would encrypt under the same
/// (key, nonce) pair, which for GCM leaks plaintext XORs and the GHASH
/// subkey. This is the GCM analogue of derive_iv() mixing the SPI into
/// the CBC IV; configure() enforces spi_out != spi_in.
void gcm_nonce(const SecurityAssociation& sa,
               const std::array<std::uint8_t, 4>& salt,
               const std::uint8_t iv[8],
               std::uint8_t nonce[crypto::GcmContext::kIvSize]) {
  util::store_be32(nonce, util::load_be32(salt.data()) ^ sa.spi);
  std::memcpy(nonce + 4, iv, 8);
}

/// cbc-hmac ICV over ESP header + IV + the `ct_len` ciphertext bytes at
/// `ciphertext` (RFC 4303 §2.8); with ESN the 32-bit seq-hi is appended to
/// the authenticated data but never transmitted (RFC 4303 §2.2.1), so a
/// wrong recovery fails here.
std::array<std::uint8_t, crypto::HmacSha256::kDigestSize> esp_hmac(
    const crypto::HmacSha256& tmpl, const SecurityAssociation& sa,
    std::uint64_t seq, const std::uint8_t* ciphertext, std::size_t ct_len) {
  constexpr std::size_t kPrefix =
      packet::kEspHeaderSize + IpsecEndpoint::kIvSize;
  crypto::HmacSha256 hmac = tmpl;
  hmac.update({ciphertext - kPrefix, kPrefix + ct_len});
  if (sa.esn) {
    std::uint8_t hi[4];
    util::store_be32(hi, static_cast<std::uint32_t>(seq >> 32));
    hmac.update(hi);
  }
  return hmac.final();
}

constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;

/// One frame of a lane array, rebuilt in place in its pooled segment. The
/// segment does not move with the PacketBuffer handle, so the offsets stay
/// valid while up to kLanes frames queue for one batched crypto pass.
struct EspLane {
  packet::PacketBuffer frame;
  std::uint64_t seq = 0;
  std::size_t pt_off = 0;  ///< payload start (plaintext or ciphertext)
  std::size_t pt_len = 0;  ///< payload incl. ESP trailer, excl. ICV
  std::size_t inner_size = 0;  ///< encap: inner IP bytes (lifetime usage)
  std::uint8_t nonce[crypto::GcmContext::kIvSize] = {};  ///< GCM only
  std::uint8_t aad[12] = {};                             ///< GCM only
  std::size_t aad_len = 0;

  std::uint8_t* payload() { return frame.data().data() + pt_off; }

  /// The lane as a seal_mb/open_mb op: in place over the payload, with
  /// the tag right behind it.
  crypto::GcmMbOp gcm_op() {
    return {{nonce, sizeof(nonce)},
            {aad, aad_len},
            {payload(), pt_len},
            payload(),
            payload() + pt_len};
  }
};

bool soft_expired(const SaLifetime& lt, const SecurityAssociation& sa) {
  if (lt.soft_packets != 0 && sa.packets >= lt.soft_packets) return true;
  if (lt.soft_bytes != 0 && sa.bytes >= lt.soft_bytes) return true;
  // Sequence headroom: soft-trigger before the sequence space runs out.
  const std::uint64_t ceiling = sa.seq_ceiling();
  if (lt.seq_headroom != 0 && ceiling - sa.seq <= lt.seq_headroom) {
    return true;
  }
  return false;
}

bool hard_expired(const SaLifetime& lt, const SecurityAssociation& sa) {
  if (lt.hard_packets != 0 && sa.packets >= lt.hard_packets) return true;
  if (lt.hard_bytes != 0 && sa.bytes >= lt.hard_bytes) return true;
  return false;
}

json::Value sa_to_json(const SecurityAssociation& sa) {
  json::Object doc;
  doc["spi"] = static_cast<std::uint64_t>(sa.spi);
  doc["state"] = std::string(sa_state_name(sa.state));
  doc["esn"] = sa.esn;
  doc["seq"] = sa.seq.load();
  doc["replay_top"] = sa.replay_top.load();
  doc["packets"] = sa.packets.load();
  doc["bytes"] = sa.bytes.load();
  doc["auth_fail"] = sa.auth_fail.load();
  doc["replay_drops"] = sa.replay_drops.load();
  doc["lifetime_drops"] = sa.lifetime_drops.load();
  doc["malformed"] = sa.malformed.load();
  return doc;
}

}  // namespace

std::string_view sa_state_name(SaState state) {
  switch (state) {
    case SaState::kActive:
      return "active";
    case SaState::kRekeying:
      return "rekeying";
    case SaState::kDraining:
      return "draining";
    case SaState::kDead:
      return "dead";
  }
  return "?";
}

util::Status IpsecEndpoint::Keymat::prepare() {
  if (have_enc_key) {
    auto aes = crypto::Aes::create(enc_key);
    if (!aes) return aes.status();
    cipher = aes.value();
    auto g = crypto::GcmContext::create(enc_key);
    if (!g) return g.status();
    gcm = std::move(g).value();
  }
  hmac_tmpl.emplace(auth_key);
  return util::Status::ok();
}

void IpsecEndpoint::sad_insert(ContextId ctx, std::uint32_t spi,
                               SadSlot slot) {
  sad_[sad_key(ctx, spi)] = slot;
}

void IpsecEndpoint::sad_erase(ContextId ctx, std::uint32_t spi) {
  sad_.erase(sad_key(ctx, spi));
}

void IpsecEndpoint::register_control_spis(
    Tunnel& tunnel, std::initializer_list<std::uint32_t> spis) {
  unregister_control_spis(tunnel);
  for (std::uint32_t spi : spis) {
    exec::ControlSpiRegistry::instance().add(spi);
    tunnel.control_spis.push_back(spi);
  }
}

void IpsecEndpoint::unregister_control_spis(Tunnel& tunnel) {
  for (std::uint32_t spi : tunnel.control_spis) {
    exec::ControlSpiRegistry::instance().remove(spi);
  }
  tunnel.control_spis.clear();
}

util::Status IpsecEndpoint::configure(ContextId ctx, const NfConfig& config) {
  // Lifecycle mutation: exclusive vs. in-flight worker bursts.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  Tunnel& tunnel = tunnels_[ctx];
  if (!tunnel.keymat) tunnel.keymat = std::make_shared<Keymat>();
  const std::uint32_t prev_in_spi = tunnel.in_sa.spi;
  const bool was_configured = tunnel.configured;
  NfConfig rekey;
  for (const auto& [key, value] : config) {
    if (key == "local_ip" || key == "peer_ip") {
      auto addr = packet::Ipv4Address::parse(value);
      if (!addr.has_value()) {
        return util::invalid_argument("ipsec: bad " + key + " '" + value +
                                      "'");
      }
      (key == "local_ip" ? tunnel.local_ip : tunnel.peer_ip) = *addr;
    } else if (key == "spi_out") {
      NNFV_RETURN_IF_ERROR(parse_spi(key, value, tunnel.out_sa.spi));
    } else if (key == "spi_in") {
      NNFV_RETURN_IF_ERROR(parse_spi(key, value, tunnel.in_sa.spi));
    } else if (key == "enc_key") {
      NNFV_RETURN_IF_ERROR(parse_enc_key(value, tunnel.keymat->enc_key,
                                         tunnel.keymat->salt));
      tunnel.keymat->have_enc_key = true;
    } else if (key == "esp_transform") {
      if (value == "gcm") {
        tunnel.transform = EspTransform::kGcm;
      } else if (value == "cbc-hmac") {
        tunnel.transform = EspTransform::kCbcHmac;
      } else {
        return util::invalid_argument(
            "ipsec: esp_transform must be 'gcm' or 'cbc-hmac', got '" +
            value + "'");
      }
    } else if (key == "esn") {
      if (value != "on" && value != "off") {
        return util::invalid_argument(
            "ipsec: esn must be 'on' or 'off', got '" + value + "'");
      }
      tunnel.out_sa.esn = value == "on";
      tunnel.in_sa.esn = tunnel.out_sa.esn;
    } else if (key == "auth_key") {
      NNFV_RETURN_IF_ERROR(parse_key(value, tunnel.keymat->auth_key));
    } else if (key == "life_soft_packets") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.soft_packets));
    } else if (key == "life_hard_packets") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.hard_packets));
    } else if (key == "life_soft_bytes") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.soft_bytes));
    } else if (key == "life_hard_bytes") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.hard_bytes));
    } else if (key == "seq_headroom") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.seq_headroom));
    } else if (key == "drain_ns") {
      std::uint64_t ns = 0;
      NNFV_RETURN_IF_ERROR(parse_count(key, value, ns));
      tunnel.drain_ns = static_cast<sim::SimTime>(ns);
    } else if (key == "rekey_spi_out" || key == "rekey_spi_in" ||
               key == "rekey_enc_key" || key == "rekey_auth_key" ||
               key == "rekey_cutover") {
      rekey[key] = value;
    } else if (key == "outer_src_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.outer_src_mac));
    } else if (key == "outer_dst_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.outer_dst_mac));
    } else if (key == "inner_src_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.inner_src_mac));
    } else if (key == "inner_dst_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.inner_dst_mac));
    } else {
      return util::invalid_argument("ipsec: unknown config key '" + key +
                                    "'");
    }
  }
  // Key-schedule work that must not happen per packet: the AES schedule
  // and GCM GHASH table are expanded here once, and the HMAC ipad is
  // absorbed once; the per-packet paths only copy midstates. Both
  // transforms' state is kept ready so esp_transform can be flipped by a
  // later configure() without re-sending keys (config keys arrive in map
  // order, so esp_transform may follow enc_key).
  NNFV_RETURN_IF_ERROR(tunnel.keymat->prepare());
  // Both directions share one enc_key/salt, so the SPI is the only
  // per-direction component of the GCM nonce (see gcm_nonce()): equal
  // SPIs would reuse (key, nonce) pairs across directions.
  if (tunnel.out_sa.spi != 0 && tunnel.out_sa.spi == tunnel.in_sa.spi) {
    return util::invalid_argument(
        "ipsec: spi_out and spi_in must differ (the SPI keys the "
        "per-direction IV/nonce derivation)");
  }
  tunnel.configured = tunnel.keymat->have_enc_key &&
                      tunnel.out_sa.spi != 0 && tunnel.in_sa.spi != 0;
  // SAD sync for the current-generation inbound SA.
  if (was_configured && prev_in_spi != 0 &&
      prev_in_spi != tunnel.in_sa.spi) {
    sad_erase(ctx, prev_in_spi);
  }
  if (tunnel.configured) {
    sad_insert(ctx, tunnel.in_sa.spi, SadSlot::kCurrent);
  }
  if (!rekey.empty()) {
    NNFV_RETURN_IF_ERROR(stage_rekey(ctx, tunnel, rekey));
  }
  return util::Status::ok();
}

util::Status IpsecEndpoint::stage_rekey(ContextId ctx, Tunnel& tunnel,
                                        const NfConfig& rekey) {
  if (!tunnel.configured) {
    return util::failed_precondition(
        "ipsec: rekey_* keys require a configured tunnel");
  }
  auto get = [&rekey](const char* key) -> const std::string* {
    auto it = rekey.find(key);
    return it == rekey.end() ? nullptr : &it->second;
  };
  const std::string* spi_out = get("rekey_spi_out");
  const std::string* spi_in = get("rekey_spi_in");
  const std::string* enc_key = get("rekey_enc_key");
  if (spi_out == nullptr || spi_in == nullptr || enc_key == nullptr) {
    return util::invalid_argument(
        "ipsec: a rekey needs rekey_spi_out, rekey_spi_in and "
        "rekey_enc_key together (fresh SPIs + fresh keymat)");
  }
  StagedRekey staged;
  staged.keymat = std::make_shared<Keymat>();
  NNFV_RETURN_IF_ERROR(parse_spi("rekey_spi_out", *spi_out,
                                 staged.out_sa.spi));
  NNFV_RETURN_IF_ERROR(parse_spi("rekey_spi_in", *spi_in,
                                 staged.in_sa.spi));
  NNFV_RETURN_IF_ERROR(parse_enc_key(*enc_key, staged.keymat->enc_key,
                                     staged.keymat->salt));
  staged.keymat->have_enc_key = true;
  if (const std::string* auth_key = get("rekey_auth_key")) {
    NNFV_RETURN_IF_ERROR(parse_key(*auth_key, staged.keymat->auth_key));
  } else {
    staged.keymat->auth_key = tunnel.keymat->auth_key;
  }
  if (const std::string* cutover_mode = get("rekey_cutover")) {
    if (*cutover_mode == "now") {
      staged.immediate = true;
    } else if (*cutover_mode != "soft") {
      return util::invalid_argument(
          "ipsec: rekey_cutover must be 'soft' or 'now', got '" +
          *cutover_mode + "'");
    }
  }
  if (staged.out_sa.spi == staged.in_sa.spi) {
    return util::invalid_argument(
        "ipsec: rekey_spi_out and rekey_spi_in must differ");
  }
  // The staged inbound SPI joins the SAD immediately, so it must not
  // collide with an inbound SPI this context already answers to — except
  // the previously staged one, which a restage replaces.
  const bool replaces_staged =
      tunnel.staged && tunnel.staged->in_sa.spi == staged.in_sa.spi;
  if (!replaces_staged &&
      sad_.count(sad_key(ctx, staged.in_sa.spi)) != 0) {
    return util::invalid_argument(
        "ipsec: rekey_spi_in " + *spi_in +
        " collides with a live inbound SA of this tunnel");
  }
  NNFV_RETURN_IF_ERROR(staged.keymat->prepare());
  staged.out_sa.esn = tunnel.out_sa.esn;
  staged.in_sa.esn = tunnel.in_sa.esn;
  // Restaging replaces a pending (not yet cut over) rekey.
  if (tunnel.staged) sad_erase(ctx, tunnel.staged->in_sa.spi);
  sad_insert(ctx, staged.in_sa.spi, SadSlot::kStaged);
  // The new generation's ESP traffic is control priority until the
  // superseded SA retires: overload shedding must not starve a rekey
  // into a dead tunnel. (Replaces any previous registration — a restage
  // or back-to-back rekey moves the protection to the newest SPIs.)
  register_control_spis(tunnel, {staged.out_sa.spi, staged.in_sa.spi});
  tunnel.staged = std::move(staged);
  ++stats_shard().rekeys_started;
  return util::Status::ok();
}

void IpsecEndpoint::expire_draining(ContextId ctx, Tunnel& tunnel,
                                    sim::SimTime now) {
  if (tunnel.draining && now >= tunnel.draining->deadline) {
    tunnel.draining->sa.state = SaState::kDead;
    sad_erase(ctx, tunnel.draining->sa.spi);
    tunnel.draining.reset();
    // Rekey fully complete (old generation gone): the new SPIs carry
    // ordinary traffic now, so they lose control priority — unless a
    // newer rekey already re-registered its own SPIs.
    if (!tunnel.staged) unregister_control_spis(tunnel);
    ++stats_shard().sas_retired;
  }
}

void IpsecEndpoint::cutover(ContextId ctx, Tunnel& tunnel,
                            sim::SimTime now) {
  // A previous generation still draining is force-retired: at most two
  // inbound generations (current + one draining) are live per tunnel.
  if (tunnel.draining) {
    sad_erase(ctx, tunnel.draining->sa.spi);
    tunnel.draining.reset();
    ++stats_shard().sas_retired;
  }
  DrainingSa draining;
  draining.sa = tunnel.in_sa;
  draining.sa.state = SaState::kDraining;
  draining.keymat = tunnel.keymat;
  draining.deadline = now + tunnel.drain_ns;
  sad_insert(ctx, draining.sa.spi, SadSlot::kDraining);
  tunnel.draining = std::move(draining);

  tunnel.out_sa = tunnel.staged->out_sa;
  tunnel.in_sa = tunnel.staged->in_sa;
  tunnel.keymat = tunnel.staged->keymat;
  tunnel.staged.reset();
  sad_insert(ctx, tunnel.in_sa.spi, SadSlot::kCurrent);
  ++stats_shard().rekeys_completed;
}

SecurityAssociation* IpsecEndpoint::outbound_gate(ContextId ctx,
                                                  Tunnel& tunnel,
                                                  sim::SimTime now) {
  SecurityAssociation* sa = &tunnel.out_sa;
  const bool seq_exhausted = sa->seq >= sa->seq_ceiling();
  const bool hard = hard_expired(tunnel.lifetime, *sa) || seq_exhausted;
  const bool soft = soft_expired(tunnel.lifetime, *sa);
  if (tunnel.staged &&
      (tunnel.staged->immediate || soft || hard ||
       sa->state == SaState::kDead)) {
    // Make-before-break: with staged keymat present, every expiry
    // condition resolves into a cutover instead of a drop.
    cutover(ctx, tunnel, now);
    return &tunnel.out_sa;
  }
  if (sa->state == SaState::kDead || hard) {
    // RFC 4303 §3.3.3: the sequence counter must not cycle, and a hard
    // lifetime is a hard stop — drop with a counted reason rather than
    // emit a packet the SA is no longer allowed to send.
    sa->state = SaState::kDead;
    ++sa->lifetime_drops;
    ++stats_shard().lifetime_drops;
    return nullptr;
  }
  if (soft && sa->state == SaState::kActive) {
    // Soft expiry without staged keymat: keep sending, flag the SA so
    // the controller (REST stats) sees the rekey request.
    sa->state = SaState::kRekeying;
  }
  return sa;
}

bool IpsecEndpoint::fast_path_ok(const Tunnel& tunnel, NfPortIndex in_port,
                                 std::size_t frames) {
  if (tunnel.staged || tunnel.draining) return false;
  const SaLifetime& lt = tunnel.lifetime;
  if (lt.soft_packets != 0 || lt.hard_packets != 0 || lt.soft_bytes != 0 ||
      lt.hard_bytes != 0) {
    return false;
  }
  if (in_port == 0) {
    const SecurityAssociation& sa = tunnel.out_sa;
    if (sa.state != SaState::kActive) return false;
    // Neither sequence exhaustion nor the soft headroom trigger may
    // become reachable within this burst (conservative by one frame).
    const std::uint64_t remaining = sa.seq_ceiling() - sa.seq;
    if (remaining < frames) return false;
    if (lt.seq_headroom != 0 && remaining - frames <= lt.seq_headroom) {
      return false;
    }
  } else {
    if (tunnel.in_sa.state != SaState::kActive) return false;
  }
  return true;
}

std::optional<std::span<const std::uint8_t>> IpsecEndpoint::parse_inner_ipv4(
    const packet::PacketBuffer& frame) {
  // Inner packet = everything after the Ethernet header, trimmed to the IP
  // total length (drops any Ethernet padding). Tunnel mode carries any
  // transport, so only the headers up to IPv4 are checked.
  packet::Ipv4Tuple ip;
  if (packet::decode_ipv4(frame.data(), ip) != packet::Ipv4Decode::kOk ||
      ip.total_length > frame.size() - ip.l3_off) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  return frame.data().subspan(ip.l3_off, ip.total_length);
}

void IpsecEndpoint::write_outer_headers(const Tunnel& tunnel,
                                        const SecurityAssociation& sa,
                                        std::uint64_t seq,
                                        std::size_t esp_payload,
                                        std::span<std::uint8_t> buf) {
  packet::EthernetHeader outer_eth{.dst = tunnel.outer_dst_mac,
                                   .src = tunnel.outer_src_mac,
                                   .ether_type = packet::kEtherTypeIpv4,
                                   .vlan = std::nullopt};
  packet::write_ethernet(outer_eth,
                         buf.subspan(0, packet::kEthernetHeaderSize));

  packet::Ipv4Header outer_ip;
  outer_ip.protocol = packet::kIpProtoEsp;
  outer_ip.ttl = 64;
  outer_ip.src = tunnel.local_ip;
  outer_ip.dst = tunnel.peer_ip;
  outer_ip.total_length =
      static_cast<std::uint16_t>(packet::kIpv4MinHeaderSize + esp_payload);
  outer_ip.identification = static_cast<std::uint16_t>(seq);
  packet::write_ipv4(outer_ip, buf.subspan(packet::kEthernetHeaderSize,
                                           packet::kIpv4MinHeaderSize));

  packet::EspHeader esp{sa.spi, static_cast<std::uint32_t>(seq)};
  packet::write_esp(esp, buf.subspan(kEspOffset, packet::kEspHeaderSize));
}

std::optional<IpsecEndpoint::EspIngress> IpsecEndpoint::parse_esp_ingress(
    ContextId ctx, Tunnel& tunnel, const packet::PacketBuffer& frame,
    std::size_t min_esp_payload) {
  packet::Ipv4Tuple ip;
  if (packet::decode_ipv4(frame.data(), ip) != packet::Ipv4Decode::kOk ||
      ip.tuple.protocol != packet::kIpProtoEsp ||
      ip.total_length > frame.size() - ip.l3_off) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  if (!(ip.tuple.dst_ip == tunnel.local_ip)) {
    ++stats_shard().no_sa;
    return std::nullopt;
  }
  // decode_ipv4 guarantees total_length >= header_size, so this span is
  // in-bounds even for truncated garbage.
  const std::size_t esp_off =
      static_cast<std::size_t>(ip.l3_off) + ip.header_size;
  auto esp_area =
      frame.data().subspan(esp_off, ip.total_length - ip.header_size);
  if (esp_area.size() < min_esp_payload) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  auto esp = packet::parse_esp(esp_area);
  if (!esp) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  // O(1) SAD resolution: (ctx, SPI) -> generation. Current, staged and
  // draining inbound SAs all answer here, which is what lets in-flight
  // packets of the superseded generation drain during a rekey.
  auto sad_it = sad_.find(sad_key(ctx, esp->spi));
  if (sad_it == sad_.end()) {
    ++stats_shard().no_sa;
    return std::nullopt;
  }
  SecurityAssociation* sa = nullptr;
  Keymat* keymat = nullptr;
  switch (sad_it->second) {
    case SadSlot::kCurrent:
      sa = &tunnel.in_sa;
      keymat = tunnel.keymat.get();
      break;
    case SadSlot::kStaged:
      sa = &tunnel.staged->in_sa;
      keymat = tunnel.staged->keymat.get();
      break;
    case SadSlot::kDraining:
      sa = &tunnel.draining->sa;
      keymat = tunnel.draining->keymat.get();
      break;
  }
  if (sa->state == SaState::kDead ||
      hard_expired(tunnel.lifetime, *sa)) {
    sa->state = SaState::kDead;
    ++sa->lifetime_drops;
    ++stats_shard().lifetime_drops;
    return std::nullopt;
  }
  // The 64-bit sequence inferred here feeds both the AAD/ICV input and
  // the replay update.
  const std::uint64_t seq =
      sa->esn ? esn_recover_seq(*sa, esp->sequence) : esp->sequence;
  return EspIngress{esp_area, esp_off, seq, sa, keymat};
}

void IpsecEndpoint::emit_inner(const Tunnel& tunnel,
                               SecurityAssociation& sa,
                               packet::PacketBuffer&& inner,
                               std::vector<NfOutput>& out) {
  const auto plaintext = inner.data();
  if (plaintext.size() < 2) {
    ++sa.malformed;
    ++stats_shard().malformed;
    return;
  }
  const std::uint8_t next_header = plaintext.back();
  const std::uint8_t pad_len = plaintext[plaintext.size() - 2];
  // pad_len is bounded by what the payload can hold (RFC 4303 §2.4); a
  // larger value is forgery debris that must not underflow the trim.
  if (next_header != 4 || plaintext.size() < 2u + pad_len) {
    ++sa.malformed;
    ++stats_shard().malformed;
    return;
  }
  // Validate the monotonic pad bytes (cheap corruption check).
  for (std::size_t i = 0; i < pad_len; ++i) {
    const std::size_t idx = plaintext.size() - 2 - pad_len + i;
    if (plaintext[idx] != i + 1) {
      ++sa.malformed;
      ++stats_shard().malformed;
      return;
    }
  }
  // Strip the trailer and rebuild the Ethernet header in the headroom
  // the outer headers vacated — pure offset adjustments, no copy.
  inner.trim(plaintext.size() - 2 - pad_len);
  auto ethspan = inner.push_front(packet::kEthernetHeaderSize);
  packet::EthernetHeader inner_eth{.dst = tunnel.inner_dst_mac,
                                   .src = tunnel.inner_src_mac,
                                   .ether_type = packet::kEtherTypeIpv4,
                                   .vlan = std::nullopt};
  packet::write_ethernet(inner_eth, ethspan);

  ++sa.packets;
  sa.bytes += inner.size();
  ++stats_shard().decapsulated;
  out.push_back(NfOutput{0, std::move(inner)});
}

// Both transforms share one frame layout and one gather loop per
// direction:
//
//   Eth | outer IPv4 | ESP | IV | payload | pad | pad_len | nh | ICV(16)
//
// "gcm" (RFC 4106 shape): the 8-byte explicit IV is the 64-bit sequence
// counter, the trailer pads to 4 bytes, and the nonce is
// (salt ^ SPI)(4) || IV(8) — a deliberate deviation from RFC 4106's
// plain salt || IV, needed because both directions share one enc_key here
// (see gcm_nonce(); a conforming peer with per-SA keymat would not
// interoperate). The AAD is the ESP header, widened under ESN.
// "cbc-hmac": the 16-byte IV is derive_iv(SPI, seq), the trailer pads to
// the cipher block, and HMAC-SHA256-128 covers ESP header + IV +
// ciphertext.
//
// Frames are rebuilt where they sit in their pooled segments and gathered
// into lane arrays of up to kLanes: GCM lanes go through one seal_mb /
// open_mb batch, CBC lanes through in-place CBC + HMAC one by one. The
// lifecycle path gathers one lane at a time, so every lifecycle check
// sees the state the previous frame left behind.

void IpsecEndpoint::encapsulate(ContextId ctx, Tunnel& tunnel,
                                sim::SimTime now, bool lifecycle,
                                packet::PacketBurst& burst,
                                std::vector<NfOutput>& out) {
  const bool gcm = tunnel.transform == EspTransform::kGcm;
  const std::size_t max_lanes = lifecycle ? 1 : kLanes;
  const std::size_t iv_size = gcm ? kGcmIvSize : kIvSize;
  // GCM is a stream mode, so padding only has to satisfy the RFC 4303
  // 4-byte alignment of (payload | pad_len | next_header); CBC pads to
  // whole cipher blocks.
  const std::size_t align = gcm ? 4 : crypto::Aes::kBlockSize;
  const std::size_t pt_off = kEspOffset + packet::kEspHeaderSize + iv_size;
  SecurityAssociation& sa = tunnel.out_sa;
  EspLane lanes[kLanes];
  std::size_t n = 0;

  // The one place encap crypto runs. Sequence numbers were claimed in
  // frame order, so the wire is bit-identical whatever the lane count.
  auto flush = [&] {
    const Keymat& keymat = *tunnel.keymat;
    if (gcm) {
      crypto::GcmMbOp ops[kLanes];
      for (std::size_t i = 0; i < n; ++i) ops[i] = lanes[i].gcm_op();
      if (!keymat.gcm->seal_mb(ops, n).is_ok()) {
        stats_shard().malformed += n;
        n = 0;
        return;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        EspLane& lane = lanes[i];
        std::uint8_t* payload = lane.payload();
        crypto::active_backend().cbc_encrypt(*keymat.cipher, payload - kIvSize,
                                             payload, payload, lane.pt_len);
        const auto icv = esp_hmac(*keymat.hmac_tmpl, sa, lane.seq, payload,
                                  lane.pt_len);
        std::memcpy(payload + lane.pt_len, icv.data(), kIcvSize);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++sa.packets;
      sa.bytes += lanes[i].inner_size;
      ++stats_shard().encapsulated;
      out.push_back(NfOutput{1, std::move(lanes[i].frame)});
    }
    n = 0;
  };

  for (packet::PacketBuffer& frame : burst) {
    // The gate may cut over to the staged generation (new SA contents and
    // keymat), hard-stop the SA or flag soft expiry; fast_path_ok already
    // ruled all of that out for a steady-state burst.
    if (lifecycle && outbound_gate(ctx, tunnel, now) == nullptr) continue;
    // Headroom prepend + trailer append + in-place crypto rebuild the
    // frame where it sits; a flooded replica must go private first.
    frame.unshare();
    auto inner = parse_inner_ipv4(frame);
    if (!inner) continue;
    EspLane& lane = lanes[n];
    // Workers sharing the SA each claim a unique sequence number.
    lane.seq = ++sa.seq;
    lane.inner_size = inner->size();
    // Reduce the view to the inner IP packet (drop the red-side Ethernet
    // header and any padding past total_length), append the trailer
    // (pad bytes 1, 2, 3, ... per RFC 4303 §2.4), then claim headroom for
    // Eth | outer IPv4 | ESP | IV and tailroom for the ICV. Pure offset
    // adjustments: the payload never moves.
    frame.pull_front(
        static_cast<std::size_t>(inner->data() - frame.data().data()));
    frame.trim(lane.inner_size);
    const std::size_t pad = (align - (lane.inner_size + 2) % align) % align;
    std::uint8_t* trailer = frame.push_back(pad + 2).data();
    for (std::size_t i = 1; i <= pad; ++i) {
      trailer[i - 1] = static_cast<std::uint8_t>(i);
    }
    trailer[pad] = static_cast<std::uint8_t>(pad);
    trailer[pad + 1] = 4;  // next header: IPv4 (tunnel mode)
    lane.pt_off = pt_off;
    lane.pt_len = lane.inner_size + pad + 2;
    frame.push_front(pt_off);
    frame.push_back(kIcvSize);
    auto buf = frame.data();
    write_outer_headers(tunnel, sa, lane.seq, buf.size() - kEspOffset, buf);
    std::uint8_t* iv = buf.data() + kEspOffset + packet::kEspHeaderSize;
    const Keymat& keymat = *tunnel.keymat;
    if (gcm) {
      util::store_be64(iv, lane.seq);
      gcm_nonce(sa, keymat.salt, iv, lane.nonce);
      // Without ESN the AAD bytes equal the wire ESP header exactly.
      lane.aad_len = esp_aad(sa, lane.seq, lane.aad);
    } else {
      derive_iv(*keymat.cipher, sa.spi, lane.seq, iv);
    }
    lane.frame = std::move(frame);
    if (++n == max_lanes) flush();
  }
  if (n > 0) flush();
}

void IpsecEndpoint::decapsulate(ContextId ctx, Tunnel& tunnel,
                                bool lifecycle, packet::PacketBurst& burst,
                                std::vector<NfOutput>& out) {
  const bool gcm = tunnel.transform == EspTransform::kGcm;
  // ESN seq-hi recovery reads the replay window, so a frame must see every
  // earlier frame's window update: ESN decap runs one lane, like the
  // lifecycle path.
  const std::size_t max_lanes = lifecycle || tunnel.in_sa.esn ? 1 : kLanes;
  const std::size_t iv_size = gcm ? kGcmIvSize : kIvSize;
  // ESP header + IV + the smallest payload (a bare trailer, or one cipher
  // block for CBC) + ICV.
  const std::size_t min_esp_payload =
      packet::kEspHeaderSize + iv_size +
      (gcm ? 2 : crypto::Aes::kBlockSize) + kIcvSize;
  EspLane lanes[kLanes];
  std::size_t n = 0;
  // The pending lanes' SA: a lane array shares one SA, hence one keymat
  // and one replay window.
  SecurityAssociation* sa = nullptr;
  Keymat* keymat = nullptr;

  // The one place decap crypto runs: authenticate every lane, then apply
  // verdicts, replay checks, CBC decryption and trailer stripping in frame
  // order. The epilogue holds the only state mutations (auth is pure
  // crypto), so a burst drops exactly what it would one frame at a time.
  auto flush = [&] {
    bool ok[kLanes];
    if (gcm) {
      crypto::GcmMbOp ops[kLanes];
      for (std::size_t i = 0; i < n; ++i) ops[i] = lanes[i].gcm_op();
      // Decrypts in place; forged lanes come back wiped and flagged, so
      // nothing unauthenticated leaves, and one forgery does not poison
      // its batch.
      (void)keymat->gcm->open_mb(ops, n, ok);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        EspLane& lane = lanes[i];
        const auto icv = esp_hmac(*keymat->hmac_tmpl, *sa, lane.seq,
                                  lane.payload(), lane.pt_len);
        ok[i] = crypto::constant_time_equal(
            {icv.data(), kIcvSize}, {lane.payload() + lane.pt_len, kIcvSize});
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      EspLane& lane = lanes[i];
      if (!ok[i]) {
        ++sa->auth_fail;
        ++stats_shard().auth_failures;
      } else if (!replay_check_and_update(*sa, lane.seq)) {
        ++sa->replay_drops;
        ++stats_shard().replay_drops;
      } else if (!gcm && lane.pt_len % crypto::Aes::kBlockSize != 0) {
        // CBC decrypts whole cipher blocks only; GCM is a stream mode.
        ++sa->malformed;
        ++stats_shard().malformed;
      } else {
        if (!gcm) {
          std::uint8_t* payload = lane.payload();
          crypto::active_backend().cbc_decrypt(*keymat->cipher,
                                               payload - kIvSize, payload,
                                               payload, lane.pt_len);
        }
        // The outer headers, ESP header and IV become headroom, the ICV
        // falls off the tail.
        lane.frame.pull_front(lane.pt_off);
        lane.frame.trim(lane.pt_len);
        emit_inner(tunnel, *sa, std::move(lane.frame), out);
      }
    }
    n = 0;
  };

  for (packet::PacketBuffer& frame : burst) {
    // Decryption happens in place over the ciphertext region, so the
    // ingress spans must point into a privately owned segment.
    frame.unshare();
    auto ingress = parse_esp_ingress(ctx, tunnel, frame, min_esp_payload);
    if (!ingress) continue;
    if (n > 0 && ingress->sa != sa) flush();
    sa = ingress->sa;
    keymat = ingress->keymat;
    EspLane& lane = lanes[n];
    lane.seq = ingress->sequence;
    lane.pt_off = ingress->esp_off + packet::kEspHeaderSize + iv_size;
    lane.pt_len = ingress->esp_area.size() - packet::kEspHeaderSize -
                  iv_size - kIcvSize;
    if (gcm) {
      gcm_nonce(*sa, keymat->salt,
                ingress->esp_area.data() + packet::kEspHeaderSize,
                lane.nonce);
      // Under ESN the recovered seq-hi is bound into the AAD; the wire
      // never carries it.
      lane.aad_len = esp_aad(*sa, lane.seq, lane.aad);
    }
    lane.frame = std::move(frame);
    if (++n == max_lanes) flush();
  }
  if (n > 0) flush();
}

std::vector<NfOutput> IpsecEndpoint::process_burst(
    ContextId ctx, NfPortIndex in_port, sim::SimTime now,
    packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  if (burst.empty()) return out;
  // Steady state runs the whole burst under the shared lock: counters are
  // atomic, replay windows single-writer by RSS, and fast_path_ok is sized
  // by the burst so no frame inside it can trip a lifecycle transition.
  // Anything else retries under the exclusive lock, one lane at a time.
  std::shared_lock<std::shared_mutex> shared(mutex_);
  std::unique_lock<std::shared_mutex> exclusive(mutex_, std::defer_lock);
  if (!has_context(ctx) || in_port >= 2) {
    stats_shard().malformed += burst.size();
    return out;
  }
  auto configured_tunnel = [&]() -> Tunnel* {
    auto it = tunnels_.find(ctx);
    if (it != tunnels_.end() && it->second.configured) return &it->second;
    stats_shard().no_sa += burst.size();
    return nullptr;
  };
  Tunnel* tunnel = configured_tunnel();
  if (tunnel == nullptr) return out;
  const bool lifecycle = !fast_path_ok(*tunnel, in_port, burst.size());
  if (lifecycle) {
    shared.unlock();
    exclusive.lock();
    tunnel = configured_tunnel();
    if (tunnel == nullptr) return out;
    // Burst-amortised lifecycle sweep: the drain deadline cannot re-arm
    // mid-burst (cutover inside the burst sets a deadline >= now), so one
    // check up front covers every frame.
    expire_draining(ctx, *tunnel, now);
  }
  out.reserve(burst.size());
  if (in_port == 0) {
    encapsulate(ctx, *tunnel, now, lifecycle, burst, out);
  } else {
    decapsulate(ctx, *tunnel, lifecycle, burst, out);
  }
  burst.clear();
  return out;
}

bool IpsecEndpoint::replay_check_and_update(SecurityAssociation& sa,
                                            std::uint64_t seq) {
  if (seq == 0) return false;  // seq 0 is never valid
  constexpr std::uint64_t kWindow = kReplayWindow;
  if (seq > sa.replay_top) {
    const std::uint64_t shift = seq - sa.replay_top;
    sa.replay_bitmap = shift >= kWindow ? 0 : sa.replay_bitmap << shift;
    sa.replay_bitmap |= 1;  // bit 0 = replay_top (the new seq)
    sa.replay_top = seq;
    return true;
  }
  const std::uint64_t offset = sa.replay_top - seq;
  if (offset >= kWindow) return false;  // too old
  const std::uint64_t bit = 1ULL << offset;
  if ((sa.replay_bitmap & bit) != 0) return false;  // duplicate
  sa.replay_bitmap |= bit;
  return true;
}

util::Status IpsecEndpoint::remove_context(ContextId ctx) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  auto it = tunnels_.find(ctx);
  if (it != tunnels_.end()) {
    Tunnel& tunnel = it->second;
    if (tunnel.configured) sad_erase(ctx, tunnel.in_sa.spi);
    if (tunnel.staged) sad_erase(ctx, tunnel.staged->in_sa.spi);
    if (tunnel.draining) sad_erase(ctx, tunnel.draining->sa.spi);
    unregister_control_spis(tunnel);
    tunnels_.erase(it);
  }
  return util::Status::ok();
}

IpsecStats IpsecEndpoint::stats() const {
  // Aggregates the per-worker shards; counters are relaxed, so the sum
  // is a point-in-time snapshot, exact once the datapath is quiesced.
  IpsecStats totals;
  for (const StatsShard& shard : stats_shards_) {
    const IpsecStats& s = shard.stats;
    totals.encapsulated += s.encapsulated;
    totals.decapsulated += s.decapsulated;
    totals.auth_failures += s.auth_failures;
    totals.replay_drops += s.replay_drops;
    totals.malformed += s.malformed;
    totals.no_sa += s.no_sa;
    totals.lifetime_drops += s.lifetime_drops;
    totals.rekeys_started += s.rekeys_started;
    totals.rekeys_completed += s.rekeys_completed;
    totals.sas_retired += s.sas_retired;
  }
  return totals;
}

json::Value IpsecEndpoint::describe_stats(ContextId ctx) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const IpsecStats totals = stats();
  json::Object doc;
  json::Object endpoint;
  endpoint["encapsulated"] = totals.encapsulated.load();
  endpoint["decapsulated"] = totals.decapsulated.load();
  endpoint["auth_failures"] = totals.auth_failures.load();
  endpoint["replay_drops"] = totals.replay_drops.load();
  endpoint["malformed"] = totals.malformed.load();
  endpoint["no_sa"] = totals.no_sa.load();
  endpoint["lifetime_drops"] = totals.lifetime_drops.load();
  endpoint["rekeys_started"] = totals.rekeys_started.load();
  endpoint["rekeys_completed"] = totals.rekeys_completed.load();
  endpoint["sas_retired"] = totals.sas_retired.load();
  doc["endpoint"] = std::move(endpoint);
  doc["sad_size"] = static_cast<std::uint64_t>(sad_.size());
  auto it = tunnels_.find(ctx);
  if (it != tunnels_.end() && it->second.configured) {
    const Tunnel& tunnel = it->second;
    json::Object t;
    t["transform"] =
        std::string(tunnel.transform == EspTransform::kGcm ? "gcm"
                                                           : "cbc-hmac");
    t["out_sa"] = sa_to_json(tunnel.out_sa);
    t["in_sa"] = sa_to_json(tunnel.in_sa);
    t["rekey_pending"] = tunnel.out_sa.state == SaState::kRekeying &&
                         !tunnel.staged.has_value();
    if (tunnel.staged) {
      json::Object staged;
      staged["out_sa"] = sa_to_json(tunnel.staged->out_sa);
      staged["in_sa"] = sa_to_json(tunnel.staged->in_sa);
      t["staged"] = std::move(staged);
    }
    if (tunnel.draining) {
      json::Object draining;
      draining["sa"] = sa_to_json(tunnel.draining->sa);
      draining["deadline_ns"] =
          static_cast<std::uint64_t>(tunnel.draining->deadline);
      t["draining"] = std::move(draining);
    }
    doc["tunnel"] = std::move(t);
  }
  return doc;
}

SecurityAssociation* IpsecEndpoint::inbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() ? nullptr : &it->second.in_sa;
}

SecurityAssociation* IpsecEndpoint::outbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() ? nullptr : &it->second.out_sa;
}

SecurityAssociation* IpsecEndpoint::staged_outbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.staged
             ? nullptr
             : &it->second.staged->out_sa;
}

SecurityAssociation* IpsecEndpoint::staged_inbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.staged
             ? nullptr
             : &it->second.staged->in_sa;
}

SecurityAssociation* IpsecEndpoint::draining_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.draining
             ? nullptr
             : &it->second.draining->sa;
}

}  // namespace nnfv::nnf
