#include "cadet/client_node.h"

#include <algorithm>
#include <cstring>

#include "cadet/config.h"
#include "cadet/seal.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/log.h"

namespace cadet {

ClientNode::ClientNode(const Config& config)
    : config_(config),
      csprng_(config.seed ^ 0xc11e47c11e47ULL),
      rng_(config.seed ^ 0xbacc0ffULL),
      pool_(config.pool_bits) {
  if (config.metrics != nullptr) {
    metrics_ = config.metrics;
  } else {
    owned_metrics_ = std::make_shared<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  const obs::Labels labels = obs::tier_labels("client", config_.id);
  ctr_.requests_sent = &metrics_->counter("cadet_client_requests_sent", labels);
  ctr_.requests_fulfilled =
      &metrics_->counter("cadet_client_requests_fulfilled", labels);
  ctr_.requests_expired =
      &metrics_->counter("cadet_client_requests_expired", labels);
  ctr_.requests_retried =
      &metrics_->counter("cadet_client_requests_retried", labels);
  ctr_.requests_fallback =
      &metrics_->counter("cadet_client_requests_fallback", labels);
  ctr_.dupes_dropped =
      &metrics_->counter("cadet_client_dupes_dropped", labels);
  ctr_.uploads_sent = &metrics_->counter("cadet_client_uploads_sent", labels);
  ctr_.bytes_received =
      &metrics_->counter("cadet_client_bytes_received", labels);
  pool_.bind_metrics(*metrics_, labels);
}

util::Bytes ClientNode::wire(Packet packet) {
  if (++tx_seq_ == 0) ++tx_seq_;  // 0 is the "unsequenced" sentinel
  packet.header.seq = tx_seq_;
  return encode(packet);
}

std::vector<net::Outgoing> ClientNode::begin_init(util::SimTime now,
                                                  RegCallback on_complete) {
  on_init_complete_ = std::move(on_complete);
  init_attempts_ = 0;
  return send_init(now);
}

std::vector<net::Outgoing> ClientNode::send_init(util::SimTime now) {
  (void)now;
  // Fresh keypair + nonce. Key generation is the expensive one-time entropy
  // and compute spend the token scheme exists to avoid repeating. Retries
  // re-run the whole handshake (new keypair, new nonce) so a stale server
  // pending entry or a deduplicated packet can never wedge registration.
  init_keypair_ = make_keypair(csprng_);
  init_nonce_ = csprng_.array<8>();
  cost_.add(cost::kX25519 + cost::kCraftPacket);

  Packet p = Packet::registration(
      RegSubtype::kClientInitReq,
      encode_reg_request(init_keypair_->public_key, *init_nonce_),
      /*req=*/true, /*ack=*/false, /*client_edge=*/false,
      /*edge_server=*/false);
  schedule_init_retry();
  return {{config_.server, wire(std::move(p))}};
}

void ClientNode::schedule_init_retry() {
  if (!config_.timer) return;
  const std::size_t attempt = init_attempts_++;
  if (attempt >= kMaxRegRetries) return;
  config_.timer(backoff_delay(kRegRetryBaseNs, attempt, rng_.uniform01()),
                [this](util::SimTime now) -> std::vector<net::Outgoing> {
                  if (initialized()) return {};
                  obs::emit(now, "init_retry", "client", config_.id, {});
                  return send_init(now);
                });
}

std::vector<net::Outgoing> ClientNode::begin_rereg(util::SimTime now,
                                                   RegCallback on_complete) {
  if (!csk_ || !token_) {
    CADET_LOG_WARN << "client " << config_.id
                   << ": rereg attempted before init";
    return {};
  }
  on_rereg_complete_ = std::move(on_complete);
  rereg_attempts_ = 0;
  return send_rereg(now);
}

std::vector<net::Outgoing> ClientNode::send_rereg(util::SimTime now) {
  const auto hash = token_hash(*token_, token_window(now));
  cost_.add(cost::kTokenHash + cost::kCraftPacket);

  util::Bytes payload(4);
  util::put_u32_be(payload.data(), config_.id);
  util::append(payload, hash);
  Packet p = Packet::registration(RegSubtype::kReregReq, std::move(payload),
                                  /*req=*/true, /*ack=*/false,
                                  /*client_edge=*/true, /*edge_server=*/false);
  schedule_rereg_retry();
  return {{config_.edge, wire(std::move(p))}};
}

void ClientNode::schedule_rereg_retry() {
  if (!config_.timer) return;
  const std::size_t attempt = rereg_attempts_++;
  if (attempt >= kMaxRegRetries) return;
  config_.timer(backoff_delay(kRegRetryBaseNs, attempt, rng_.uniform01()),
                [this](util::SimTime now) -> std::vector<net::Outgoing> {
                  if (reregistered() || !csk_ || !token_) return {};
                  obs::emit(now, "rereg_retry", "client", config_.id, {});
                  return send_rereg(now);
                });
}

std::vector<net::Outgoing> ClientNode::request_entropy(
    std::uint16_t bits, util::SimTime now, RequestCallback on_complete,
    bool end_to_end) {
  expire_stale_requests(now);
  if (end_to_end && !csk_) {
    CADET_LOG_WARN << "client " << config_.id
                   << ": end-to-end request before initialization";
    return {};
  }
  cost_.add(cost::kCraftPacket);
  ctr_.requests_sent->inc();
  // Root span of this request's trace: opens here, closes at the terminal
  // "reply" / "fallback" / "request_expired" record.
  const obs::SpanContext ctx = obs::SpanTracker::global().start_trace();
  obs::span_begin(now, "request", "client", config_.id, ctx, 0,
                  {{"bits", static_cast<double>(bits)},
                   {"e2e", end_to_end ? 1.0 : 0.0}});
  Packet p = end_to_end
                 ? Packet::data_request_e2e(bits, /*edge_server=*/false,
                                            config_.id)
                 : Packet::data_request(bits, /*edge_server=*/false);
  // Retransmissions resend these exact bytes (same sequence number), so a
  // retry whose first copy arrived is absorbed by the receiver's dedup
  // window instead of being served twice. The same seq carries the span
  // context to the edge — retries keep the original binding.
  util::Bytes datagram = wire(std::move(p));
  obs::SpanTracker::global().bind_seq(config_.id, tx_seq_, ctx);
  const std::uint64_t request_id = next_request_id_++;
  pending_.push_back(PendingRequest{bits, std::move(on_complete), end_to_end,
                                    now, request_id, 0, datagram, ctx});
  schedule_request_retry(request_id, 0);
  return {{config_.edge, std::move(datagram)}};
}

void ClientNode::schedule_request_retry(std::uint64_t request_id,
                                        std::size_t attempt) {
  if (!config_.timer) return;
  config_.timer(backoff_delay(kRequestRetryBaseNs, attempt, rng_.uniform01()),
                [this, request_id](util::SimTime now) {
                  return retry_request(request_id, now);
                });
}

std::vector<net::Outgoing> ClientNode::retry_request(std::uint64_t request_id,
                                                     util::SimTime now) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [&](const PendingRequest& r) { return r.id == request_id; });
  if (it == pending_.end()) return {};  // fulfilled or expired meanwhile

  if (it->attempts >= kMaxRequestRetries) {
    // Graceful degradation (Kietzmann et al.): the service is unreachable,
    // so answer from the local CSPRNG instead of blocking the consumer.
    PendingRequest req = std::move(*it);
    pending_.erase(it);
    ctr_.requests_fallback->inc();
    obs::span_end(now, "fallback", "client", config_.id, req.ctx,
                  {{"bits", static_cast<double>(req.bits)},
                   {"attempts", static_cast<double>(req.attempts)}});
    const util::Bytes local = csprng_.bytes((req.bits + 7) / 8);
    if (req.callback) req.callback(local, now);
    return {};
  }

  ++it->attempts;
  ctr_.requests_retried->inc();
  cost_.add(cost::kCraftPacket);
  obs::span_event(now, "request_retry", "client", config_.id, it->ctx,
                  {{"attempt", static_cast<double>(it->attempts)}});
  schedule_request_retry(request_id, it->attempts);
  return {{config_.edge, it->wire}};
}

std::vector<net::Outgoing> ClientNode::upload_entropy(util::Bytes payload,
                                                      util::SimTime now) {
  cost_.add(cost::kCraftPacket);
  ctr_.uploads_sent->inc();
  // Uploads get their own trace so downstream accounting (penalty drops,
  // sanity rejects, bulk forwarding) joins back to the originating client.
  // There is no acknowledgement to wait for, so the root is zero-length.
  const obs::SpanContext ctx = obs::SpanTracker::global().start_trace();
  obs::span_complete(now, "upload", "client", config_.id, ctx, 0,
                     {{"bytes", static_cast<double>(payload.size())}});
  Packet p = Packet::data_upload(std::move(payload), /*edge_server=*/false);
  util::Bytes datagram = wire(std::move(p));
  obs::SpanTracker::global().bind_seq(config_.id, tx_seq_, ctx);
  return {{config_.edge, std::move(datagram)}};
}

void ClientNode::expire_stale_requests(util::SimTime now) {
  while (!pending_.empty() &&
         now - pending_.front().issued_at > config_.request_timeout) {
    PendingRequest req = std::move(pending_.front());
    pending_.pop_front();
    ctr_.requests_expired->inc();
    obs::span_end(now, "request_expired", "client", config_.id, req.ctx,
                  {{"waited_s", util::to_seconds(now - req.issued_at)}});
    if (req.callback) req.callback({}, now);
  }
}

std::vector<net::Outgoing> ClientNode::on_packet(net::NodeId from,
                                                 util::BytesView data,
                                                 util::SimTime now) {
  cost_.add(cost::kProcessPacket);
  expire_stale_requests(now);
  const auto packet = decode(data);
  if (!packet) {
    CADET_LOG_DEBUG << "client " << config_.id << ": malformed packet from "
                    << from;
    return {};
  }

  if (packet->header.reg) {
    switch (packet->header.subtype) {
      case RegSubtype::kClientInitReqAck:
        return handle_init_ack(*packet, now);
      case RegSubtype::kReregAckToClient:
        handle_rereg_ack(*packet, now);
        return {};
      default:
        return {};
    }
  }
  // Duplicate suppression for data packets (network dupes and absorbed
  // retransmissions). Registration packets are excluded: handshakes are
  // replay-protected by their nonces and retried handshakes are fresh.
  if (packet->header.dat && !replay_.accept(from, packet->header.seq)) {
    ctr_.dupes_dropped->inc();
    obs::span_event(now, "dupe_drop", "client", config_.id,
                    obs::SpanTracker::global().lookup_seq(from,
                                                          packet->header.seq),
                    {{"from", static_cast<double>(from)},
                     {"seq", static_cast<double>(packet->header.seq)}});
    return {};
  }
  if (packet->header.dat && packet->header.ack) {
    handle_data_ack(*packet, now);
  }
  return {};
}

std::vector<net::Outgoing> ClientNode::handle_init_ack(const Packet& packet,
                                                       util::SimTime now) {
  // [s.pub(32) || seal_csk(n+1)(36) || seal_csk(token)(60)]
  if (!init_keypair_ || !init_nonce_) return {};
  if (packet.payload.size() != 32 + (8 + kSealOverhead) + (32 + kSealOverhead)) {
    return {};
  }
  crypto::X25519Key server_pub;
  std::memcpy(server_pub.data(), packet.payload.data(), 32);
  auto shared = init_keypair_->shared_secret(server_pub);
  const SharedKey csk =
      derive_key(shared, util::BytesView(kLabelCsk, sizeof(kLabelCsk)));
  util::secure_wipe(shared);
  cost_.add(cost::kX25519 + cost::kSealPerByte * 100);

  const auto sealed_nonce =
      util::BytesView(packet.payload.data() + 32, 8 + kSealOverhead);
  const auto nonce_plain = open(csk, sealed_nonce);
  if (!nonce_plain || nonce_plain->size() != 8) {
    CADET_LOG_WARN << "client " << config_.id << ": init nonce open failed";
    return {};
  }
  const Nonce expected = nonce_add(*init_nonce_, 1);
  if (!util::ct_equal(*nonce_plain,
                      util::BytesView(expected.data(), expected.size()))) {
    CADET_LOG_WARN << "client " << config_.id << ": init nonce mismatch";
    return {};
  }

  const auto sealed_token = util::BytesView(
      packet.payload.data() + 32 + 8 + kSealOverhead, 32 + kSealOverhead);
  const auto token_plain = open(csk, sealed_token);
  if (!token_plain || token_plain->size() != 32) return {};

  csk_ = csk;
  Token token;
  std::memcpy(token.data(), token_plain->data(), 32);
  token_ = token;

  // Confirm with E(n+2, csk) (Fig. 7b packet 3).
  const Nonce confirm = nonce_add(*init_nonce_, 2);
  util::Bytes sealed = seal(
      *csk_, util::BytesView(confirm.data(), confirm.size()), csprng_);
  cost_.add(cost::kCraftPacket);
  Packet reply = Packet::registration(RegSubtype::kClientInitAck,
                                      std::move(sealed), /*req=*/false,
                                      /*ack=*/true, /*client_edge=*/false,
                                      /*edge_server=*/false,
                                      /*encrypted=*/true);
  if (on_init_complete_) on_init_complete_(now);
  return {{config_.server, wire(std::move(reply))}};
}

void ClientNode::handle_rereg_ack(const Packet& packet, util::SimTime now) {
  if (!csk_) return;
  const auto cek_plain = open(*csk_, packet.payload);
  cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
  if (!cek_plain || cek_plain->size() != 32) {
    CADET_LOG_WARN << "client " << config_.id << ": rereg ack open failed";
    return;
  }
  SharedKey cek;
  std::memcpy(cek.data(), cek_plain->data(), 32);
  cek_ = cek;
  if (on_rereg_complete_) on_rereg_complete_(now);
}

void ClientNode::handle_data_ack(const Packet& packet, util::SimTime now) {
  util::Bytes delivered;
  if (packet.header.end_to_end) {
    // Sealed by the server under csk; the relaying edge never saw the
    // plaintext.
    if (!csk_) {
      CADET_LOG_WARN << "client " << config_.id
                     << ": end-to-end delivery without csk";
      return;
    }
    const auto plain = open(*csk_, packet.payload);
    cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
    if (!plain) return;
    delivered = *plain;
  } else if (packet.header.encrypted) {
    if (!cek_) {
      CADET_LOG_WARN << "client " << config_.id
                     << ": encrypted delivery without cek";
      return;
    }
    const auto plain = open(*cek_, packet.payload);
    cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
    if (!plain) return;
    delivered = *plain;
  } else {
    delivered = packet.payload;
  }

  // NIST guidance (paper §VI-C2): remote entropy bolsters the on-board RNG
  // rather than being consumed directly — mix into the local pool.
  // Remote bytes are credited at half weight as a trust haircut.
  pool_.add(delivered, delivered.size() * 4);

  // Fulfil the oldest pending request of the matching mode (end-to-end and
  // cached deliveries can overtake each other in flight).
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->end_to_end != packet.header.end_to_end) continue;
    PendingRequest req = std::move(*it);
    pending_.erase(it);
    ctr_.requests_fulfilled->inc();
    ctr_.bytes_received->inc(delivered.size());
    obs::span_end(now, "reply", "client", config_.id, req.ctx,
                  {{"bytes", static_cast<double>(delivered.size())},
                   {"latency_s", util::to_seconds(now - req.issued_at)}});
    if (req.callback) req.callback(delivered, now);
    break;
  }
}

}  // namespace cadet
