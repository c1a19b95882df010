#include "nnf/ipsec.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "exec/priority.hpp"
#include "packet/checksum.hpp"
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
std::array<std::uint8_t, 16> derive_iv(const crypto::Aes& aes,
                                       std::uint32_t spi, std::uint64_t seq) {
  std::uint8_t block[16] = {};
  util::store_be32(block, spi);
  util::store_be64(block + 8, seq);
  std::array<std::uint8_t, 16> iv{};
  aes.encrypt_block(block, iv.data());
  return iv;
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
      tunnel.out_sa.enc_key = tunnel.keymat->enc_key;
      tunnel.out_sa.salt = tunnel.keymat->salt;
      tunnel.in_sa.enc_key = tunnel.keymat->enc_key;
      tunnel.in_sa.salt = tunnel.keymat->salt;
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
      tunnel.out_sa.auth_key = tunnel.keymat->auth_key;
      tunnel.in_sa.auth_key = tunnel.keymat->auth_key;
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
  staged.out_sa.enc_key = staged.keymat->enc_key;
  staged.out_sa.salt = staged.keymat->salt;
  staged.out_sa.auth_key = staged.keymat->auth_key;
  staged.in_sa.enc_key = staged.keymat->enc_key;
  staged.in_sa.salt = staged.keymat->salt;
  staged.in_sa.auth_key = staged.keymat->auth_key;
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

void IpsecEndpoint::encapsulate(ContextId ctx, Tunnel& tunnel,
                                sim::SimTime now,
                                packet::PacketBuffer&& frame,
                                std::vector<NfOutput>& out) {
  SecurityAssociation* sa = outbound_gate(ctx, tunnel, now);
  if (sa == nullptr) return;
  if (tunnel.transform == EspTransform::kGcm) {
    encapsulate_gcm(tunnel, *sa, std::move(frame), out);
  } else {
    encapsulate_cbc(tunnel, *sa, std::move(frame), out);
  }
}

void IpsecEndpoint::decapsulate(ContextId ctx, Tunnel& tunnel,
                                packet::PacketBuffer&& frame,
                                std::vector<NfOutput>& out) {
  const std::size_t min_esp_payload =
      tunnel.transform == EspTransform::kGcm
          ? packet::kEspHeaderSize + kGcmIvSize + 2 + kGcmIcvSize
          : packet::kEspHeaderSize + kIvSize + crypto::Aes::kBlockSize +
                kIcvSize;
  // Decryption happens in place over the ciphertext region, so the
  // ingress spans must point into a privately owned segment.
  frame.unshare();
  auto ingress = parse_esp_ingress(ctx, tunnel, frame, min_esp_payload);
  if (!ingress) return;
  if (tunnel.transform == EspTransform::kGcm) {
    decapsulate_gcm(tunnel, *ingress, std::move(frame), out);
  } else {
    decapsulate_cbc(tunnel, *ingress, std::move(frame), out);
  }
}

std::optional<std::span<const std::uint8_t>> IpsecEndpoint::parse_inner_ipv4(
    const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth || eth->ether_type != packet::kEtherTypeIpv4) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  // Inner packet = everything after the Ethernet header, trimmed to the IP
  // total length (drops any Ethernet padding).
  auto l3 = frame.data().subspan(eth->wire_size());
  auto inner_ip = packet::parse_ipv4(l3);
  if (!inner_ip || inner_ip->total_length > l3.size()) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  return std::span<const std::uint8_t>{l3.data(), inner_ip->total_length};
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
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth || eth->ether_type != packet::kEtherTypeIpv4) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  auto l3 = frame.data().subspan(eth->wire_size());
  auto ip = packet::parse_ipv4(l3);
  if (!ip || ip->protocol != packet::kIpProtoEsp ||
      ip->total_length > l3.size()) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  if (!(ip->dst == tunnel.local_ip)) {
    ++stats_shard().no_sa;
    return std::nullopt;
  }
  // parse_ipv4 guarantees total_length >= header_size, so this span is
  // in-bounds even for truncated garbage.
  auto esp_area = l3.subspan(ip->header_size(),
                             ip->total_length - ip->header_size());
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
  // One recovery per packet: the 64-bit sequence inferred here is reused
  // for the AAD/ICV input and the replay update by every caller (serial
  // and multi-buffer paths alike).
  const std::uint64_t seq =
      sa->esn ? esn_recover_seq(*sa, esp->sequence) : esp->sequence;
  const std::size_t esp_off =
      static_cast<std::size_t>(esp_area.data() - frame.data().data());
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

void IpsecEndpoint::encapsulate_cbc(Tunnel& tunnel, SecurityAssociation& sa,
                                    packet::PacketBuffer&& frame,
                                    std::vector<NfOutput>& out) {
  // The frame is rebuilt in place; a flooded replica goes private first.
  frame.unshare();
  auto inner = parse_inner_ipv4(frame);
  if (!inner) return;

  // Claim this packet's sequence number atomically: workers sharing the
  // SA each get a unique value.
  const std::uint64_t seq = ++sa.seq;
  const std::size_t inner_size = inner->size();

  // ESP trailer: pad so (inner + pad + 2) is a multiple of the block size;
  // pad bytes are 1,2,3,... (RFC 4303 §2.4).
  const std::size_t block = crypto::Aes::kBlockSize;
  const std::size_t pad = (block - (inner_size + 2) % block) % block;
  std::vector<std::uint8_t> plaintext(inner->begin(), inner->end());
  for (std::size_t i = 1; i <= pad; ++i) {
    plaintext.push_back(static_cast<std::uint8_t>(i));
  }
  plaintext.push_back(static_cast<std::uint8_t>(pad));
  plaintext.push_back(4);  // next header: IPv4 (tunnel mode)

  Keymat& keymat = *tunnel.keymat;
  const auto iv = derive_iv(*keymat.cipher, sa.spi, seq);
  auto ciphertext = crypto::aes_cbc_encrypt_raw(*keymat.cipher, iv, plaintext);
  if (!ciphertext) {
    ++stats_shard().malformed;
    return;
  }

  // Reassemble Eth | outer IPv4 | ESP | IV | ciphertext | ICV into the
  // input frame's own segment (inner bytes were staged into `plaintext`
  // above — CBC is not length-preserving in place the way GCM is).
  const std::size_t esp_payload =
      packet::kEspHeaderSize + kIvSize + ciphertext->size() + kIcvSize;
  frame.reset();
  auto buf = frame.push_back(kEspOffset + esp_payload);
  write_outer_headers(tunnel, sa, seq, esp_payload, buf);
  std::memcpy(buf.data() + kEspOffset + packet::kEspHeaderSize, iv.data(),
              kIvSize);
  std::memcpy(buf.data() + kEspOffset + packet::kEspHeaderSize + kIvSize,
              ciphertext->data(), ciphertext->size());

  // ICV over ESP header + IV + ciphertext (RFC 4303 §2.8); with ESN the
  // 32-bit seq-hi is appended to the authenticated data but never
  // transmitted (RFC 4303 §2.2.1).
  const std::size_t auth_len =
      packet::kEspHeaderSize + kIvSize + ciphertext->size();
  crypto::HmacSha256 hmac = *keymat.hmac_tmpl;
  hmac.update(buf.subspan(kEspOffset, auth_len));
  if (sa.esn) {
    std::uint8_t hi[4];
    util::store_be32(hi, static_cast<std::uint32_t>(seq >> 32));
    hmac.update(hi);
  }
  const auto icv = hmac.final();
  std::memcpy(buf.data() + kEspOffset + auth_len, icv.data(), kIcvSize);

  ++sa.packets;
  sa.bytes += inner_size;
  ++stats_shard().encapsulated;
  out.push_back(NfOutput{1, std::move(frame)});
}

void IpsecEndpoint::decapsulate_cbc(Tunnel& tunnel, EspIngress ingress,
                                    packet::PacketBuffer&& frame,
                                    std::vector<NfOutput>& out) {
  SecurityAssociation& sa = *ingress.sa;
  Keymat& keymat = *ingress.keymat;
  auto esp_area = ingress.esp_area;

  // Verify ICV first (constant time), then replay, then decrypt. Under
  // ESN the recovered seq-hi joins the authenticated data (implicit
  // suffix, RFC 4303 §2.2.1) — a wrong recovery fails right here.
  const std::size_t auth_len = esp_area.size() - kIcvSize;
  crypto::HmacSha256 hmac = *keymat.hmac_tmpl;
  hmac.update(esp_area.subspan(0, auth_len));
  if (sa.esn) {
    std::uint8_t hi[4];
    util::store_be32(hi, static_cast<std::uint32_t>(ingress.sequence >> 32));
    hmac.update(hi);
  }
  const auto expected = hmac.final();
  if (!crypto::constant_time_equal({expected.data(), kIcvSize},
                                   esp_area.subspan(auth_len, kIcvSize))) {
    ++sa.auth_fail;
    ++stats_shard().auth_failures;
    return;
  }
  if (!replay_check_and_update(sa, ingress.sequence)) {
    ++sa.replay_drops;
    ++stats_shard().replay_drops;
    return;
  }

  auto iv = esp_area.subspan(packet::kEspHeaderSize, kIvSize);
  auto ciphertext = esp_area.subspan(
      packet::kEspHeaderSize + kIvSize,
      auth_len - packet::kEspHeaderSize - kIvSize);
  auto plaintext =
      crypto::aes_cbc_decrypt_raw(*keymat.cipher, iv, ciphertext);
  if (!plaintext) {
    ++sa.malformed;
    ++stats_shard().malformed;
    return;
  }
  // Rebuild the decrypted payload into the frame's own segment (the CBC
  // helper stages through a vector); the vacated outer-header space
  // becomes the headroom emit_inner prepends the Ethernet header into.
  frame.reset();
  auto dst = frame.push_back(plaintext->size());
  std::memcpy(dst.data(), plaintext->data(), plaintext->size());
  emit_inner(tunnel, sa, std::move(frame), out);
}

// RFC 4106-shaped AES-GCM ESP: Eth | outer IPv4 | ESP | IV(8) |
// ciphertext | ICV(16). The explicit IV is the 64-bit sequence counter;
// the GCM nonce is (salt ^ SPI)(4) || IV(8) — a deliberate deviation
// from RFC 4106's plain salt||IV, needed because both directions share
// one enc_key here (see gcm_nonce(); a conforming peer with per-SA
// keymat would not interoperate). The AAD is the 8-byte ESP header
// (SPI, seq).
// Encryption and authentication happen in one in-place seal() over the
// output buffer — no separate HMAC pass, no plaintext staging copy, and
// both CTR and GHASH pipeline across blocks on the hardware backend.
bool IpsecEndpoint::encapsulate_gcm_prepare(Tunnel& tunnel,
                                            SecurityAssociation& sa,
                                            packet::PacketBuffer&& frame,
                                            GcmEncapPrep& prep) {
  // Headroom prepend + trailer append + in-place seal rebuild the frame
  // where it sits; a flooded replica must go private first.
  frame.unshare();
  auto inner = parse_inner_ipv4(frame);
  if (!inner) return false;

  // Claim this packet's sequence number atomically: workers sharing the
  // SA each get a unique value.
  const std::uint64_t seq = ++sa.seq;
  const std::size_t inner_size = inner->size();

  // Reduce the view to the inner IP packet: drop the red-side Ethernet
  // header and any Ethernet padding past total_length — pure offset
  // adjustments on the pooled segment, the payload never moves.
  const std::size_t eth_size =
      static_cast<std::size_t>(inner->data() - frame.data().data());
  frame.pull_front(eth_size);
  frame.trim(inner_size);

  // ESP trailer into the tailroom: GCM is a stream mode, so padding only
  // has to satisfy the RFC 4303 4-byte alignment of
  // (payload | pad_len | next_header).
  const std::size_t pad = (4 - (inner_size + 2) % 4) % 4;
  const std::size_t pt_len = inner_size + pad + 2;
  std::uint8_t* trailer = frame.push_back(pad + 2).data();
  for (std::size_t i = 1; i <= pad; ++i) {
    trailer[i - 1] = static_cast<std::uint8_t>(i);
  }
  trailer[pad] = static_cast<std::uint8_t>(pad);
  trailer[pad + 1] = 4;  // next header: IPv4 (tunnel mode)

  // Claim the headroom for Eth | outer IPv4 | ESP | IV (the red-side
  // Ethernet header plus default headroom always covers it) and the
  // tailroom for the ICV; the payload now sits where the seal reads and
  // writes it.
  const std::size_t esp_payload =
      packet::kEspHeaderSize + kGcmIvSize + pt_len + kGcmIcvSize;
  const std::size_t ct_off =
      kEspOffset + packet::kEspHeaderSize + kGcmIvSize;
  frame.push_front(ct_off);
  frame.push_back(kGcmIcvSize);
  auto buf = frame.data();
  write_outer_headers(tunnel, sa, seq, esp_payload, buf);
  util::store_be64(buf.data() + kEspOffset + packet::kEspHeaderSize, seq);

  Keymat& keymat = *tunnel.keymat;
  gcm_nonce(sa, keymat.salt, buf.data() + kEspOffset + packet::kEspHeaderSize,
            prep.nonce);
  // AAD: the ESP header, widened to SPI || seq-hi || seq-lo under ESN
  // (without ESN the constructed bytes equal the wire header exactly).
  prep.aad_len = esp_aad(sa, seq, prep.aad);
  prep.ct_off = ct_off;
  prep.pt_len = pt_len;
  prep.inner_size = inner_size;
  prep.frame = std::move(frame);
  return true;
}

NfOutput IpsecEndpoint::encapsulate_gcm_finish(SecurityAssociation& sa,
                                               GcmEncapPrep&& prep) {
  ++sa.packets;
  sa.bytes += prep.inner_size;
  ++stats_shard().encapsulated;
  return NfOutput{1, std::move(prep.frame)};
}

void IpsecEndpoint::encapsulate_gcm(Tunnel& tunnel, SecurityAssociation& sa,
                                    packet::PacketBuffer&& frame,
                                    std::vector<NfOutput>& out) {
  GcmEncapPrep prep;
  if (!encapsulate_gcm_prepare(tunnel, sa, std::move(frame), prep)) {
    return;
  }
  auto buf = prep.frame.data();
  // Encryption and authentication in one in-place seal() over the
  // output buffer — no separate HMAC pass, no plaintext staging copy,
  // and both CTR and GHASH pipeline across blocks on the hardware
  // backend.
  if (!tunnel.keymat->gcm
           ->seal({prep.nonce, sizeof(prep.nonce)}, {prep.aad, prep.aad_len},
                  buf.subspan(prep.ct_off, prep.pt_len),
                  buf.data() + prep.ct_off,
                  buf.data() + prep.ct_off + prep.pt_len)
           .is_ok()) {
    ++stats_shard().malformed;
    return;
  }
  out.push_back(encapsulate_gcm_finish(sa, std::move(prep)));
}

void IpsecEndpoint::encapsulate_gcm_burst(Tunnel& tunnel,
                                          SecurityAssociation& sa,
                                          packet::PacketBurst& burst,
                                          std::vector<NfOutput>& out) {
  // Same-SA frames become independent seal_mb lanes: each packet keeps
  // its own nonce/AAD/sequence (claimed in frame order, so the wire is
  // bit-identical to the serial loop), while the batched kernel
  // interleaves their AES streams — short packets no longer serialise
  // on AESENC latency.
  constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;
  Keymat& keymat = *tunnel.keymat;
  std::size_t idx = 0;
  while (idx < burst.size()) {
    GcmEncapPrep preps[kLanes];
    crypto::GcmMbOp ops[kLanes];
    std::size_t n = 0;
    while (idx < burst.size() && n < kLanes) {
      GcmEncapPrep& prep = preps[n];
      if (!encapsulate_gcm_prepare(tunnel, sa, std::move(burst[idx++]),
                                   prep)) {
        continue;  // dropped; parse failures leave no lane behind
      }
      auto buf = prep.frame.data();
      ops[n] = crypto::GcmMbOp{{prep.nonce, sizeof(prep.nonce)},
                               {prep.aad, prep.aad_len},
                               {buf.data() + prep.ct_off, prep.pt_len},
                               buf.data() + prep.ct_off,
                               buf.data() + prep.ct_off + prep.pt_len};
      ++n;
    }
    if (n == 0) continue;
    if (!keymat.gcm->seal_mb(ops, n).is_ok()) {
      stats_shard().malformed += n;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(encapsulate_gcm_finish(sa, std::move(preps[i])));
    }
  }
}

void IpsecEndpoint::decapsulate_gcm_burst(ContextId ctx, Tunnel& tunnel,
                                          packet::PacketBurst& burst,
                                          std::vector<NfOutput>& out) {
  constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;
  const std::size_t min_esp_payload =
      packet::kEspHeaderSize + kGcmIvSize + 2 + kGcmIcvSize;

  struct DecapPrep {
    packet::PacketBuffer frame;
    SecurityAssociation* sa = nullptr;
    Keymat* keymat = nullptr;
    std::uint64_t sequence = 0;
    std::size_t pt_off = 0;
    std::size_t ct_len = 0;
    std::uint8_t nonce[crypto::GcmContext::kIvSize] = {};
    std::uint8_t aad[12] = {};
    std::size_t aad_len = 0;
  };

  std::size_t idx = 0;
  while (idx < burst.size()) {
    DecapPrep preps[kLanes];
    crypto::GcmMbOp ops[kLanes];
    std::size_t n = 0;
    while (idx < burst.size() && n < kLanes) {
      packet::PacketBuffer frame = std::move(burst[idx]);
      // Decryption happens in place over the ciphertext region, so the
      // ingress spans must point into a privately owned segment.
      frame.unshare();
      auto ingress = parse_esp_ingress(ctx, tunnel, frame, min_esp_payload);
      if (!ingress) {
        ++idx;
        continue;  // dropped and counted by the parser
      }
      // A batch shares one GcmContext: frames resolving to different
      // keymat (a control SPI mid-burst) close the current group and
      // start the next one.
      if (n > 0 && ingress->keymat != preps[0].keymat) {
        burst[idx] = std::move(frame);
        break;
      }
      ++idx;
      DecapPrep& prep = preps[n];
      prep.sa = ingress->sa;
      prep.keymat = ingress->keymat;
      prep.sequence = ingress->sequence;
      auto esp_area = ingress->esp_area;
      gcm_nonce(*prep.sa, prep.keymat->salt,
                esp_area.data() + packet::kEspHeaderSize, prep.nonce);
      prep.aad_len = esp_aad(*prep.sa, prep.sequence, prep.aad);
      prep.ct_len = esp_area.size() - packet::kEspHeaderSize - kGcmIvSize -
                    kGcmIcvSize;
      prep.pt_off = ingress->esp_off + packet::kEspHeaderSize + kGcmIvSize;
      auto ciphertext =
          esp_area.subspan(packet::kEspHeaderSize + kGcmIvSize, prep.ct_len);
      auto icv = esp_area.subspan(esp_area.size() - kGcmIcvSize, kGcmIcvSize);
      prep.frame = std::move(frame);
      ops[n] = crypto::GcmMbOp{
          {prep.nonce, sizeof(prep.nonce)},
          {prep.aad, prep.aad_len},
          ciphertext,
          prep.frame.data().data() + prep.pt_off,
          const_cast<std::uint8_t*>(icv.data())};
      ++n;
    }
    if (n == 0) continue;
    // Authenticate + decrypt every lane in one batched pass; forged
    // lanes come back wiped and flagged. The ordered epilogue below then
    // applies verdicts, replay checks and trailer stripping in frame
    // order — the only state mutations, so semantics match the serial
    // path packet for packet.
    bool ok[kLanes];
    (void)preps[0].keymat->gcm->open_mb(ops, n, ok);
    for (std::size_t i = 0; i < n; ++i) {
      DecapPrep& prep = preps[i];
      SecurityAssociation& sa = *prep.sa;
      if (!ok[i]) {
        ++sa.auth_fail;
        ++stats_shard().auth_failures;
        continue;
      }
      if (!replay_check_and_update(sa, prep.sequence)) {
        ++sa.replay_drops;
        ++stats_shard().replay_drops;
        continue;
      }
      prep.frame.pull_front(prep.pt_off);
      prep.frame.trim(prep.ct_len);
      emit_inner(tunnel, sa, std::move(prep.frame), out);
    }
  }
}

void IpsecEndpoint::decapsulate_gcm(Tunnel& tunnel, EspIngress ingress,
                                    packet::PacketBuffer&& frame,
                                    std::vector<NfOutput>& out) {
  SecurityAssociation& sa = *ingress.sa;
  Keymat& keymat = *ingress.keymat;
  auto esp_area = ingress.esp_area;

  std::uint8_t nonce[crypto::GcmContext::kIvSize];
  gcm_nonce(sa, keymat.salt, esp_area.data() + packet::kEspHeaderSize, nonce);

  const std::size_t ct_len = esp_area.size() - packet::kEspHeaderSize -
                             kGcmIvSize - kGcmIcvSize;
  auto ciphertext =
      esp_area.subspan(packet::kEspHeaderSize + kGcmIvSize, ct_len);
  auto icv = esp_area.subspan(esp_area.size() - kGcmIcvSize, kGcmIcvSize);

  // Authenticate (tag over SPI || [recovered seq-hi ||] seq-lo +
  // ciphertext) and decrypt in one pass, then replay-check, then strip
  // the trailer. Under ESN the recovered high half is bound into the
  // AAD here — the wire never carries it.
  std::uint8_t aad[12];
  const std::size_t aad_len = esp_aad(sa, ingress.sequence, aad);
  // Decrypt in place: the plaintext overwrites the ciphertext region of
  // the frame's own segment (gcm_crypt allows in == out). On auth
  // failure open() wipes the half-written plaintext and the frame is
  // dropped, so nothing unauthenticated ever leaves this function.
  const std::size_t pt_off =
      ingress.esp_off + packet::kEspHeaderSize + kGcmIvSize;
  if (!keymat.gcm->open({nonce, sizeof(nonce)}, {aad, aad_len}, ciphertext,
                        icv, frame.data().data() + pt_off)) {
    ++sa.auth_fail;
    ++stats_shard().auth_failures;
    return;
  }
  if (!replay_check_and_update(sa, ingress.sequence)) {
    ++sa.replay_drops;
    ++stats_shard().replay_drops;
    return;
  }
  // Decap is a pure view adjustment: the outer headers + ESP + IV
  // become headroom, the ICV falls off the tail.
  frame.pull_front(pt_off);
  frame.trim(ct_len);
  emit_inner(tunnel, sa, std::move(frame), out);
}

std::vector<NfOutput> IpsecEndpoint::process_burst(
    ContextId ctx, NfPortIndex in_port, sim::SimTime now,
    packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  if (burst.empty()) return out;
  {
    // Steady-state fast path for the whole burst under the shared lock;
    // fast_path_ok is sized by the burst so no frame inside it can trip
    // a lifecycle transition.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (!has_context(ctx) || in_port >= 2) {
      stats_shard().malformed += burst.size();
      return out;
    }
    auto it = tunnels_.find(ctx);
    if (it == tunnels_.end() || !it->second.configured) {
      stats_shard().no_sa += burst.size();
      return out;
    }
    Tunnel& tunnel = it->second;
    if (fast_path_ok(tunnel, in_port, burst.size())) {
      out.reserve(burst.size());
      // GCM bursts take the multi-buffer lanes: up to kMaxMbLanes
      // same-SA frames sealed/opened per batched backend call. Batched
      // ESN decap is skipped — seq-hi recovery reads the replay window,
      // and a burst crossing a 2^32 boundary must see each prior
      // packet's window update (the serial loop's semantics).
      if (tunnel.transform == EspTransform::kGcm && in_port == 0) {
        encapsulate_gcm_burst(tunnel, tunnel.out_sa, burst, out);
      } else if (tunnel.transform == EspTransform::kGcm &&
                 !tunnel.in_sa.esn) {
        decapsulate_gcm_burst(ctx, tunnel, burst, out);
      } else {
        for (packet::PacketBuffer& frame : burst) {
          if (in_port == 0) {
            encapsulate_cbc(tunnel, tunnel.out_sa, std::move(frame), out);
          } else {
            decapsulate(ctx, tunnel, std::move(frame), out);
          }
        }
      }
      burst.clear();
      return out;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = tunnels_.find(ctx);
  if (it == tunnels_.end() || !it->second.configured) {
    stats_shard().no_sa += burst.size();
    return out;
  }
  Tunnel& tunnel = it->second;
  // Burst-amortised lifecycle sweep: the drain deadline cannot re-arm
  // mid-burst (cutover inside the burst sets a deadline >= now), so one
  // check up front covers every frame.
  expire_draining(ctx, tunnel, now);
  out.reserve(burst.size());
  for (packet::PacketBuffer& frame : burst) {
    if (in_port == 0) {
      encapsulate(ctx, tunnel, now, std::move(frame), out);
    } else {
      decapsulate(ctx, tunnel, std::move(frame), out);
    }
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
