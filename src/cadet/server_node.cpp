#include "cadet/server_node.h"

#include <algorithm>
#include <cstring>

#include "cadet/config.h"
#include "cadet/seal.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/log.h"

namespace cadet {

ServerNode::ServerNode(const Config& config)
    : config_(config),
      csprng_(config.seed ^ 0x5e27e25e27e2ULL),
      rng_(config.seed ^ 0x9876fedcULL),
      pool_(config.pool_capacity_bytes),
      mixer_(pool_),
      econ_(config.penalty) {
  if (config.metrics != nullptr) {
    metrics_ = config.metrics;
  } else {
    owned_metrics_ = std::make_shared<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  const obs::Labels labels = obs::tier_labels("server", config_.id);
  ctr_.uploads_received =
      &metrics_->counter("cadet_server_uploads_received", labels);
  ctr_.uploads_dropped_penalty =
      &metrics_->counter("cadet_server_uploads_dropped_penalty", labels);
  ctr_.uploads_rejected_sanity =
      &metrics_->counter("cadet_server_uploads_rejected_sanity", labels);
  ctr_.bytes_mixed = &metrics_->counter("cadet_server_bytes_mixed", labels);
  ctr_.requests_served =
      &metrics_->counter("cadet_server_requests_served", labels);
  ctr_.bytes_served = &metrics_->counter("cadet_server_bytes_served", labels);
  ctr_.requests_short =
      &metrics_->counter("cadet_server_requests_short", labels);
  ctr_.quality_checks_run =
      &metrics_->counter("cadet_server_quality_checks_run", labels);
  ctr_.quality_checks_failed =
      &metrics_->counter("cadet_server_quality_checks_failed", labels);
  ctr_.pool_exchanges =
      &metrics_->counter("cadet_server_pool_exchanges", labels);
  ctr_.dupes_dropped =
      &metrics_->counter("cadet_server_dupes_dropped", labels);
  pool_.bind_metrics(*metrics_, labels);
  mixer_.bind_metrics(*metrics_, labels);
  prov_newest_gauge_ =
      &metrics_->gauge("cadet_server_pool_gen_newest", labels);
  prov_oldest_gauge_ =
      &metrics_->gauge("cadet_server_pool_gen_oldest", labels);
}

ServerNode::Stats ServerNode::stats() const noexcept {
  Stats s;
  s.uploads_received = ctr_.uploads_received->value();
  s.uploads_dropped_penalty = ctr_.uploads_dropped_penalty->value();
  s.uploads_rejected_sanity = ctr_.uploads_rejected_sanity->value();
  s.bytes_mixed = ctr_.bytes_mixed->value();
  s.requests_served = ctr_.requests_served->value();
  s.bytes_served = ctr_.bytes_served->value();
  s.requests_short = ctr_.requests_short->value();
  s.quality_checks_run = ctr_.quality_checks_run->value();
  s.quality_checks_failed = ctr_.quality_checks_failed->value();
  s.pool_exchanges = ctr_.pool_exchanges->value();
  s.dupes_dropped = ctr_.dupes_dropped->value();
  return s;
}

util::Bytes ServerNode::wire(Packet packet) {
  if (++tx_seq_ == 0) ++tx_seq_;  // 0 is the "unsequenced" sentinel
  packet.header.seq = tx_seq_;
  return encode(packet);
}

void ServerNode::seed_pool(util::BytesView bytes) {
  pool_.push(bytes);
  // Generation 0 = pre-protocol seed entropy (deployment bootstrap).
  prov_.credit(0, bytes.size());
}

std::vector<net::Outgoing> ServerNode::on_packet(net::NodeId from,
                                                 util::BytesView data,
                                                 util::SimTime now) {
  cost_.add(cost::kProcessPacket);
  const auto packet = decode(data);
  if (!packet) {
    CADET_LOG_DEBUG << "server " << config_.id << ": malformed packet from "
                    << from;
    return {};
  }
  if (packet->header.reg) return handle_registration(from, *packet, now);
  return handle_data(from, *packet, now);
}

std::vector<net::Outgoing> ServerNode::handle_data(net::NodeId from,
                                                   const Packet& packet,
                                                   util::SimTime now) {
  // Duplicate suppression: a retransmitted bulk upload must not be mixed
  // (and credited) twice, and a duplicated request must not drain the pool
  // for a reply nobody is waiting on.
  obs::SpanTracker& tracker = obs::SpanTracker::global();
  if (!replay_.accept(from, packet.header.seq)) {
    ctr_.dupes_dropped->inc();
    obs::span_event(now, "dupe_drop", "server", config_.id,
                    tracker.lookup_seq(from, packet.header.seq),
                    {{"from", static_cast<double>(from)},
                     {"seq", static_cast<double>(packet.header.seq)}});
    return {};
  }
  // Context the sender bound to this packet's seq (invalid if spans off).
  const obs::SpanContext root = tracker.lookup_seq(from, packet.header.seq);

  if (packet.header.req && packet.header.end_to_end) {
    // Untrusted-edge request: seal the entropy under the requesting
    // client's csk so the relaying edge cannot read it (paper §VIII).
    const net::NodeId client = util::get_u32_be(packet.payload.data());
    const auto record_it = client_records_.find(client);
    if (record_it == client_records_.end()) {
      CADET_LOG_WARN << "server " << config_.id
                     << ": e2e request for unknown client " << client;
      return {};
    }
    const std::size_t want = (packet.header.argument + 7) / 8;
    util::Bytes served = pool_.pop(want);
    if (served.size() < want) ctr_.requests_short->inc();
    ctr_.requests_served->inc();
    ctr_.bytes_served->inc(served.size());
    const auto src = prov_.debit(served.size());
    prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
    obs::span_complete(now, "request", "server", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"bytes", static_cast<double>(served.size())},
                        {"e2e", 1.0},
                        {"gen_lo", static_cast<double>(src.lo)},
                        {"gen_hi", static_cast<double>(src.hi)}});
    cost_.add(cost::kCraftPacket +
              cost::kSealPerByte * static_cast<double>(served.size()));

    util::Bytes payload(4);
    util::put_u32_be(payload.data(), client);
    util::append(payload, seal(record_it->second.csk, served, csprng_));
    util::Bytes datagram = wire(Packet::data_ack_e2e(
        std::move(payload), packet.header.edge_server));
    // Bind the reply seq to the ROOT, not the serve span: the edge relay
    // and the client's dedup tagging should parent on the request root.
    tracker.bind_seq(config_.id, tx_seq_, root);
    return {{from, std::move(datagram)}};
  }

  if (packet.header.req) {
    // Entropy request: serve from the pool head.
    const std::size_t want = (packet.header.argument + 7) / 8;
    util::Bytes served = pool_.pop(want);
    if (served.size() < want) ctr_.requests_short->inc();
    ctr_.requests_served->inc();
    ctr_.bytes_served->inc(served.size());
    const auto src = prov_.debit(served.size());
    prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
    obs::span_complete(now, "request", "server", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"bytes", static_cast<double>(served.size())},
                        {"e2e", 0.0},
                        {"gen_lo", static_cast<double>(src.lo)},
                        {"gen_hi", static_cast<double>(src.hi)}});
    cost_.add(cost::kCraftPacket);

    const auto esk_it = edge_keys_.find(from);
    util::Bytes datagram;
    if (esk_it != edge_keys_.end()) {
      cost_.add(cost::kSealPerByte * static_cast<double>(served.size()));
      util::Bytes sealed = seal(esk_it->second, served, csprng_);
      datagram = wire(Packet::data_ack(std::move(sealed),
                                       packet.header.edge_server,
                                       /*encrypted=*/true));
    } else {
      datagram = wire(Packet::data_ack(std::move(served),
                                       packet.header.edge_server,
                                       /*encrypted=*/false));
    }
    // An edge refill closes its own refill span on receipt; binding the
    // request root here covers direct client requests and dedup tagging.
    tracker.bind_seq(config_.id, tx_seq_, root);
    return {{from, std::move(datagram)}};
  }

  if (packet.header.ack) {
    // Delivery from a peer server's pool exchange: mix it in directly.
    mix_contribution(packet.payload, now, root);
    return {};
  }

  // Upload (bulk from an edge, direct from a client, or a peer exchange).
  ctr_.uploads_received->inc();
  obs::span_event(now, "upload_rx", "server", config_.id, root,
                  {{"from", static_cast<double>(from)},
                   {"bytes", static_cast<double>(packet.payload.size())}});
  const ClientEconomics::Slot slot = econ_.slot(from);
  if (econ_.should_drop(slot, rng_)) {
    ctr_.uploads_dropped_penalty->inc();
    return {};
  }
  if (config_.sanity_checks_enabled) {
    cost_.add(cost::kSanityPerByte * static_cast<double>(packet.payload.size()));
    const auto outcome = sanity_.check(from, packet.payload);
    econ_.record_result(slot, outcome.checks_passed);
    if (!outcome.accepted) {
      ctr_.uploads_rejected_sanity->inc();
      return {};
    }
  }
  mix_contribution(packet.payload, now, root);
  return {};
}

void ServerNode::mix_contribution(util::BytesView payload, util::SimTime now,
                                  obs::SpanContext ctx) {
  if (payload.empty()) return;
  cost_.add(cost::kServerMixPerByte * static_cast<double>(payload.size()));
  mixer_.add_input(payload);
  ctr_.bytes_mixed->inc(payload.size());
  // One provenance generation per mixed contribution; drawn down FIFO by
  // every pool pop (serves, quality drops, peer exchanges).
  prov_.credit(++mix_generation_, payload.size());
  prov_newest_gauge_->set(static_cast<std::int64_t>(prov_.newest()));
  prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
  obs::span_event(now, "mix", "server", config_.id, ctx,
                  {{"bytes", static_cast<double>(payload.size())},
                   {"gen", static_cast<double>(mix_generation_)}});
  bytes_since_quality_check_ += payload.size();
  maybe_quality_check();
}

void ServerNode::maybe_quality_check() {
  if (config_.quality_check_interval_bytes == 0) return;
  if (bytes_since_quality_check_ < config_.quality_check_interval_bytes) {
    return;
  }
  bytes_since_quality_check_ = 0;
  run_quality_check();
}

nist::BatteryResult ServerNode::run_quality_check() {
  const std::size_t bytes_needed = (config_.quality_check_bits + 7) / 8;
  util::Bytes snapshot = pool_.peek(bytes_needed);
  ctr_.quality_checks_run->inc();
  if (snapshot.size() * 8 < 1024) {
    // Not enough data for a meaningful verdict; count as run, not failed.
    return {};
  }
  cost_.add(cost::kQualityPerByte * static_cast<double>(snapshot.size()));
  const auto result = quality_.run(snapshot, snapshot.size() * 8);
  // A single marginal failure is expected noise: with 7 tests at
  // alpha = 0.01 a perfect generator trips one ~5-7 % of the time, and a
  // periodic checker would bleed good data if that quarantined. Require
  // either two failing tests or one decisive failure (p < 1e-4) before
  // dropping the inspected segment.
  int failures = 0;
  bool decisive = false;
  for (const auto& test : result.results) {
    if (!test.pass) {
      ++failures;
      if (test.p_value < 1e-4) decisive = true;
    }
  }
  if (failures >= 2 || decisive) {
    ctr_.quality_checks_failed->inc();
    pool_.pop(snapshot.size());
    prov_.debit(snapshot.size());
    prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
    CADET_LOG_WARN << "server " << config_.id
                   << ": quality check failed (" << failures
                   << " tests); dropped " << snapshot.size()
                   << " pool bytes";
  }
  return result;
}

std::vector<net::Outgoing> ServerNode::begin_pool_exchange(net::NodeId peer,
                                                           std::size_t bytes) {
  util::Bytes chunk = pool_.pop(bytes);
  if (chunk.empty()) return {};
  ctr_.pool_exchanges->inc();
  prov_.debit(chunk.size());
  prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
  cost_.add(cost::kCraftPacket);
  // Shipped as a data delivery so the peer mixes it without a sanity gate
  // (peer servers are trusted infrastructure).
  Packet p = Packet::data_ack(std::move(chunk), /*edge_server=*/true,
                              /*encrypted=*/false);
  return {{peer, wire(std::move(p))}};
}

std::vector<net::Outgoing> ServerNode::handle_registration(
    net::NodeId from, const Packet& packet, util::SimTime now) {
  switch (packet.header.subtype) {
    case RegSubtype::kEdgeRegReq:
    case RegSubtype::kClientInitReq: {
      const auto req = decode_reg_request(packet.payload);
      if (!req) return {};
      const bool is_client =
          packet.header.subtype == RegSubtype::kClientInitReq;

      // Fresh server keypair per handshake (Fig. 7a/7b packet 2).
      const auto kp = make_keypair(csprng_);
      auto shared = kp.shared_secret(req->pub);
      const SharedKey key =
          is_client
              ? derive_key(shared, util::BytesView(kLabelCsk, sizeof(kLabelCsk)))
              : derive_key(shared, util::BytesView(kLabelEsk, sizeof(kLabelEsk)));
      util::secure_wipe(shared);
      cost_.add(2 * cost::kX25519 + cost::kCraftPacket);

      PendingHandshake pending;
      pending.key = key;
      pending.expected_confirm = nonce_add(req->nonce, 2);
      pending.is_client = is_client;
      pending_[from] = pending;

      util::Bytes payload;
      payload.reserve(32 + (8 + kSealOverhead) + (32 + kSealOverhead));
      payload.insert(payload.end(), kp.public_key.begin(),
                     kp.public_key.end());
      const Nonce n1 = nonce_add(req->nonce, 1);
      util::Bytes sealed_nonce =
          seal(key, util::BytesView(n1.data(), n1.size()), csprng_);
      util::append(payload, sealed_nonce);

      if (is_client) {
        // Token for future edge reregistration, sealed under csk.
        const Token token = make_token(csprng_);
        ClientRecord record;
        record.csk = key;
        record.token = token;
        client_records_[from] = record;
        util::Bytes sealed_token =
            seal(key, util::BytesView(token.data(), token.size()), csprng_);
        util::append(payload, sealed_token);
      }

      Packet reply = Packet::registration(
          is_client ? RegSubtype::kClientInitReqAck
                    : RegSubtype::kEdgeRegReqAck,
          std::move(payload), /*req=*/true, /*ack=*/true,
          /*client_edge=*/false, /*edge_server=*/!is_client,
          /*encrypted=*/true);
      return {{from, wire(std::move(reply))}};
    }

    case RegSubtype::kEdgeRegAck:
    case RegSubtype::kClientInitAck: {
      const auto it = pending_.find(from);
      if (it == pending_.end()) return {};
      const auto confirm = open(it->second.key, packet.payload);
      cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
      if (!confirm || confirm->size() != 8 ||
          !util::ct_equal(*confirm,
                          util::BytesView(it->second.expected_confirm.data(),
                                          8))) {
        CADET_LOG_WARN << "server " << config_.id
                       << ": bad registration confirm from " << from;
        pending_.erase(it);
        if (packet.header.subtype == RegSubtype::kClientInitAck) {
          client_records_.erase(from);
        }
        return {};
      }
      if (!it->second.is_client) {
        edge_keys_[from] = it->second.key;
      }
      // Client records were stored at packet-2 time; the confirm finalizes.
      pending_.erase(it);
      return {};
    }

    case RegSubtype::kReregFwd: {
      // seal_esk([client_id(4) || h(T)(32)]) from the edge (Fig. 7c pkt 2).
      const auto esk_it = edge_keys_.find(from);
      if (esk_it == edge_keys_.end()) return {};
      const auto plain = open(esk_it->second, packet.payload);
      cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
      if (!plain || plain->size() != 36) return {};
      const net::NodeId client = util::get_u32_be(plain->data());
      const auto record_it = client_records_.find(client);
      if (record_it == client_records_.end()) {
        CADET_LOG_WARN << "server " << config_.id << ": rereg for unknown client "
                       << client;
        return {};
      }

      // Accept the current or previous token window (clock skew/transit).
      const std::int64_t window = token_window(now);
      bool matched = false;
      for (const std::int64_t w : {window, window - 1}) {
        const auto expected = token_hash(record_it->second.token, w);
        cost_.add(cost::kTokenHash);
        if (util::ct_equal(util::BytesView(expected.data(), expected.size()),
                           util::BytesView(plain->data() + 4, 32))) {
          matched = true;
          break;
        }
      }
      if (!matched) {
        CADET_LOG_WARN << "server " << config_.id
                       << ": rereg token hash mismatch for client " << client;
        return {};
      }

      // Mint cek; ship one copy for the edge, one for the client.
      const SharedKey cek = csprng_.array<32>();
      util::Bytes payload(4);
      util::put_u32_be(payload.data(), client);
      util::Bytes for_edge =
          seal(esk_it->second, util::BytesView(cek.data(), cek.size()),
               csprng_);
      util::Bytes for_client =
          seal(record_it->second.csk, util::BytesView(cek.data(), cek.size()),
               csprng_);
      util::append(payload, for_edge);
      util::append(payload, for_client);
      cost_.add(cost::kCraftPacket + cost::kSealPerByte * 64);

      Packet reply = Packet::registration(
          RegSubtype::kReregAckToEdge, std::move(payload), /*req=*/false,
          /*ack=*/true, /*client_edge=*/false, /*edge_server=*/true,
          /*encrypted=*/true);
      return {{from, wire(std::move(reply))}};
    }

    default:
      return {};
  }
}

}  // namespace cadet
