#include "cadet/edge_node.h"

#include <algorithm>
#include <cstring>

#include "cadet/config.h"
#include "cadet/seal.h"
#include "crypto/sha256.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/log.h"

namespace cadet {

EdgeNode::EdgeNode(const Config& config)
    : config_(config),
      csprng_(config.seed ^ 0xed6eed6eed6eULL),
      rng_(config.seed ^ 0x1234abcdULL),
      cache_(config.num_clients, config.refill_policy),
      econ_(config.penalty) {
  if (config.metrics != nullptr) {
    metrics_ = config.metrics;
  } else {
    owned_metrics_ = std::make_shared<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  const obs::Labels labels = obs::tier_labels("edge", config_.id);
  ctr_.uploads_received =
      &metrics_->counter("cadet_edge_uploads_received", labels);
  ctr_.uploads_dropped_penalty =
      &metrics_->counter("cadet_edge_uploads_dropped_penalty", labels);
  ctr_.uploads_rejected_sanity =
      &metrics_->counter("cadet_edge_uploads_rejected_sanity", labels);
  ctr_.uploads_accepted =
      &metrics_->counter("cadet_edge_uploads_accepted", labels);
  ctr_.bulk_uploads_sent =
      &metrics_->counter("cadet_edge_bulk_uploads_sent", labels);
  ctr_.requests_received =
      &metrics_->counter("cadet_edge_requests_received", labels);
  ctr_.cache_hits = &metrics_->counter("cadet_edge_cache_hits", labels);
  ctr_.cache_misses = &metrics_->counter("cadet_edge_cache_misses", labels);
  ctr_.heavy_rejections =
      &metrics_->counter("cadet_edge_heavy_rejections", labels);
  ctr_.e2e_forwarded = &metrics_->counter("cadet_edge_e2e_forwarded", labels);
  ctr_.timing_bytes_injected =
      &metrics_->counter("cadet_edge_timing_bytes_injected", labels);
  ctr_.reregistrations =
      &metrics_->counter("cadet_edge_reregistrations", labels);
  ctr_.dupes_dropped = &metrics_->counter("cadet_edge_dupes_dropped", labels);
  ctr_.refill_retries =
      &metrics_->counter("cadet_edge_refill_retries", labels);
  ctr_.bytes_delivered =
      &metrics_->counter("cadet_edge_bytes_delivered", labels);
  cache_gauge_ = &metrics_->gauge("cadet_edge_cache_bytes", labels);
  prov_newest_gauge_ =
      &metrics_->gauge("cadet_edge_cache_gen_newest", labels);
  prov_oldest_gauge_ =
      &metrics_->gauge("cadet_edge_cache_gen_oldest", labels);
}

util::Bytes EdgeNode::wire(Packet packet) {
  if (++tx_seq_ == 0) ++tx_seq_;  // 0 is the "unsequenced" sentinel
  packet.header.seq = tx_seq_;
  return encode(packet);
}

EdgeNode::Stats EdgeNode::stats() const noexcept {
  Stats s;
  s.uploads_received = ctr_.uploads_received->value();
  s.uploads_dropped_penalty = ctr_.uploads_dropped_penalty->value();
  s.uploads_rejected_sanity = ctr_.uploads_rejected_sanity->value();
  s.uploads_accepted = ctr_.uploads_accepted->value();
  s.bulk_uploads_sent = ctr_.bulk_uploads_sent->value();
  s.requests_received = ctr_.requests_received->value();
  s.cache_hits = ctr_.cache_hits->value();
  s.cache_misses = ctr_.cache_misses->value();
  s.heavy_rejections = ctr_.heavy_rejections->value();
  s.e2e_forwarded = ctr_.e2e_forwarded->value();
  s.timing_bytes_injected = ctr_.timing_bytes_injected->value();
  s.reregistrations = ctr_.reregistrations->value();
  s.dupes_dropped = ctr_.dupes_dropped->value();
  s.refill_retries = ctr_.refill_retries->value();
  s.bytes_delivered = ctr_.bytes_delivered->value();
  return s;
}

std::vector<net::Outgoing> EdgeNode::begin_edge_reg(util::SimTime now,
                                                    RegCallback on_complete) {
  on_reg_complete_ = std::move(on_complete);
  reg_attempts_ = 0;
  return send_edge_reg(now);
}

std::vector<net::Outgoing> EdgeNode::send_edge_reg(util::SimTime now) {
  (void)now;
  // Retries re-run the whole handshake (fresh keypair + nonce) so a stale
  // server pending entry can never wedge registration.
  reg_keypair_ = make_keypair(csprng_);
  reg_nonce_ = csprng_.array<8>();
  cost_.add(cost::kX25519 + cost::kCraftPacket);

  Packet p = Packet::registration(
      RegSubtype::kEdgeRegReq,
      encode_reg_request(reg_keypair_->public_key, *reg_nonce_),
      /*req=*/true, /*ack=*/false, /*client_edge=*/false,
      /*edge_server=*/true);
  schedule_reg_retry();
  return {{config_.server, wire(std::move(p))}};
}

void EdgeNode::schedule_reg_retry() {
  if (!config_.timer) return;
  const std::size_t attempt = reg_attempts_++;
  if (attempt >= kMaxRegRetries) return;
  config_.timer(backoff_delay(kRegRetryBaseNs, attempt, rng_.uniform01()),
                [this](util::SimTime now) -> std::vector<net::Outgoing> {
                  if (registered()) return {};
                  obs::emit(now, "reg_retry", "edge", config_.id, {});
                  return send_edge_reg(now);
                });
}

std::vector<net::Outgoing> EdgeNode::on_packet(net::NodeId from,
                                               util::BytesView data,
                                               util::SimTime now) {
  cost_.add(cost::kProcessPacket);
  if (config_.inject_timing_entropy) {
    // Fold the packet inter-arrival delta into the timing-jitter state
    // (SVI-D3: "measure some local sources of entropy, such as CADET
    // packet inter-arrival times").
    crypto::Sha256 h;
    h.update(timing_state_);
    std::uint8_t delta[8];
    util::put_u64_be(delta, static_cast<std::uint64_t>(now - last_packet_at_));
    h.update(util::BytesView(delta, 8));
    timing_state_ = h.finish();
    last_packet_at_ = now;
  }
  // The usage clock (Eq. 1's per-packet decay) advances only on ACCEPTED
  // work: recorded requests, sanity-passed uploads, server deliveries.
  // Packets that die at a gate — malformed bytes, duplicates, penalty or
  // sanity drops — must not tick it, because each gate is an
  // attacker-reachable path: a garbage/retransmit flood would otherwise
  // drive the whole cohort's scores toward zero until honest double-fires
  // cross the (compressed) heavy threshold, recruiting the usage defense
  // against the honest population (adversary harness, decay-clock attack).
  const auto packet = decode(data);
  if (!packet) {
    CADET_LOG_DEBUG << "edge " << config_.id << ": malformed packet from "
                    << from;
    return {};
  }

  if (packet->header.reg) {
    return handle_reg_packet(from, *packet, now);
  }

  // Data packets. A request for zero bits asks for nothing. Scored, it
  // would tick the usage clock for free: at zero usage it is never over
  // the line, so never denied. It dies here, like malformed bytes.
  if (packet->header.req && packet->header.argument == 0) return {};
  // Duplicate suppression next: a network-duplicated upload must not
  // double-credit its device and a retransmitted request whose first copy
  // arrived must not be served twice.
  if (!replay_.accept(from, packet->header.seq)) {
    ctr_.dupes_dropped->inc();
    obs::span_event(now, "dupe_drop", "edge", config_.id,
                    obs::SpanTracker::global().lookup_seq(
                        from, packet->header.seq),
                    {{"from", static_cast<double>(from)},
                     {"seq", static_cast<double>(packet->header.seq)}});
    return {};
  }
  if (from == config_.server) {
    econ_.tick();
    return handle_server_data(*packet, now);
  }
  if (packet->header.req) {
    return handle_client_request(from, *packet, now);
  }
  return handle_client_upload(from, *packet, now);
}

util::Bytes EdgeNode::harvest_timing_bytes(std::size_t n) {
  crypto::Sha256 h;
  h.update(timing_state_);
  std::uint8_t ctr[8];
  util::put_u64_be(ctr, timing_counter_++);
  h.update(util::BytesView(ctr, 8));
  const auto digest = h.finish();
  return util::Bytes(digest.begin(),
                     digest.begin() + std::min<std::size_t>(n, digest.size()));
}

std::vector<net::Outgoing> EdgeNode::handle_client_upload(
    net::NodeId client, const Packet& packet, util::SimTime now) {
  // Join this packet back to the uploader's trace (bound to its wire seq).
  obs::SpanTracker& tracker = obs::SpanTracker::global();
  const obs::SpanContext up = tracker.lookup_seq(client, packet.header.seq);
  ctr_.uploads_received->inc();
  obs::span_event(now, "upload_rx", "edge", config_.id, up,
                  {{"client", static_cast<double>(client)},
                   {"bytes", static_cast<double>(packet.payload.size())}});

  // (2) penalty gate: delinquent devices are randomly ignored; the device
  // cannot tell whether a given packet was scored, so it must play fair.
  const ClientEconomics::Slot slot = econ_.slot(client);
  if (econ_.should_drop(slot, rng_)) {
    ctr_.uploads_dropped_penalty->inc();
    obs::span_event(now, "penalty_drop", "edge", config_.id, up,
                    {{"client", static_cast<double>(client)}});
    return {};
  }

  // (3) sanity check.
  int checks_passed = nist::SanityBattery::kNumChecks;
  bool accepted = true;
  if (config_.sanity_checks_enabled) {
    cost_.add(cost::kSanityPerByte *
              static_cast<double>(packet.payload.size()));
    const auto outcome = sanity_.check(client, packet.payload);
    checks_passed = outcome.checks_passed;
    accepted = outcome.accepted;
    econ_.record_result(slot, checks_passed);
  }
  if (!accepted) {
    ctr_.uploads_rejected_sanity->inc();
    obs::span_event(now, "sanity_reject", "edge", config_.id, up,
                    {{"client", static_cast<double>(client)},
                     {"checks_passed", static_cast<double>(checks_passed)}});
    return {};
  }

  // (4) accumulate in the upload buffer, optionally interleaved with
  // locally harvested timing jitter (SVI-D3). Only now — past the penalty
  // and sanity gates — does the packet advance the usage clock (see
  // on_packet: gated packets must not drive cohort decay).
  econ_.tick();
  ctr_.uploads_accepted->inc();
  buffer_contributors_.insert(client);
  util::append(upload_buffer_, packet.payload);
  if (config_.inject_timing_entropy) {
    const util::Bytes jitter = harvest_timing_bytes(2);
    ctr_.timing_bytes_injected->inc(jitter.size());
    util::append(upload_buffer_, jitter);
  }

  // (5) forward in bulk once enough has accumulated — and, when
  // configured, only once several distinct clients have contributed, so a
  // single uploader cannot fill a whole aggregate with chosen data.
  std::vector<net::Outgoing> out;
  if (upload_buffer_.size() >= config_.upload_forward_bytes &&
      buffer_contributors_.size() >= config_.min_contributors) {
    cost_.add(cost::kCraftPacket);
    const std::size_t bulk_bytes = upload_buffer_.size();
    Packet bulk =
        Packet::data_upload(std::move(upload_buffer_), /*edge_server=*/true);
    upload_buffer_.clear();
    buffer_contributors_.clear();
    ctr_.bulk_uploads_sent->inc();
    // A bulk upload aggregates many client traces; it gets its own trace,
    // which the server's mix record joins via the wire seq.
    const obs::SpanContext bulk_ctx = tracker.start_trace();
    obs::span_complete(now, "bulk_upload", "edge", config_.id, bulk_ctx, 0,
                       {{"bytes", static_cast<double>(bulk_bytes)}});
    util::Bytes datagram = wire(std::move(bulk));
    tracker.bind_seq(config_.id, tx_seq_, bulk_ctx);
    out.push_back({config_.server, std::move(datagram)});
  }
  return out;
}

std::vector<net::Outgoing> EdgeNode::handle_client_request(
    net::NodeId client, const Packet& packet, util::SimTime now) {
  // Adopt the client's request root via the wire seq: the serve decision
  // below becomes a zero-length child span of that root. Retransmissions
  // reuse the seq, so a retried request lands in the same trace.
  obs::SpanTracker& tracker = obs::SpanTracker::global();
  const obs::SpanContext root = tracker.lookup_seq(client, packet.header.seq);
  ctr_.requests_received->inc();
  obs::span_event(now, "request", "edge", config_.id, root,
                  {{"client", static_cast<double>(client)},
                   {"bits", static_cast<double>(packet.header.argument)}});
  const std::size_t bytes = cache_.clamp((packet.header.argument + 7) / 8);
  // (Client retransmissions never reach this point: retries resend the
  // same bytes under the same wire seq, so the replay gate above absorbs
  // them — a retried request is scored and queued exactly once.)
  // Heavy-user policing escalates in two stages. A request judged over
  // the heavy line (instantaneous EWMA flag) is reserve-blocked, §III-C.
  // Once a client has been over the line on kUsageHeavyStrikeLimit
  // CONSECUTIVE requests it is denied outright: reserve-blocking alone
  // is a leak — a fast requester still eats the open portion of every
  // refill ahead of slower honest clients, each refill is repaid from
  // the server pool, and the pool drains at the attacker's request rate
  // (adversary harness, cache-inflation mix). The strike window keeps an
  // honest Poisson double-fire (which can cross the line for a packet or
  // two) from paying the full retry-and-fallback price, while a flooding
  // attacker reaches the limit within a second. Denial also needs the
  // absolute rate floor (kUsageHeavyDenyMinRateHz in config.h), and a
  // denied packet does NOT advance the usage clock (see
  // ClientEconomics::request).
  const ClientEconomics::Verdict verdict =
      econ_.request(econ_.slot(client), static_cast<double>(bytes), now,
                    /*refresh=*/true, config_.heavy_denial_enabled);
  const bool over = verdict.over;
  if (verdict.deny) {
    // Denied from this packet on. The e2e path is gated too: it draws on
    // the server pool directly.
    ctr_.heavy_rejections->inc();
    ++heavy_denied_[client];
    obs::span_event(now, "heavy_deny", "edge", config_.id, root,
                    {{"client", static_cast<double>(client)},
                     {"bytes", static_cast<double>(bytes)},
                     {"strikes", static_cast<double>(verdict.strikes)}});
    return send_refill(cache_.refill(now), now);
  }

  if (packet.header.end_to_end) {
    // Untrusted-edge mode: the cache holds plaintext this edge could read,
    // so the request is relayed to the server, which seals the reply under
    // the client's own csk. Costs a full server round trip by design.
    if (!over) cache_.note_demand(bytes, now);
    ctr_.e2e_forwarded->inc();
    obs::span_complete(now, "e2e_forward", "edge", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"client", static_cast<double>(client)}});
    cost_.add(cost::kCraftPacket);
    Packet fwd = Packet::data_request_e2e(packet.header.argument,
                                          /*edge_server=*/true, client);
    util::Bytes datagram = wire(std::move(fwd));
    // Bind the forward to the *root*: the server's serve span and this
    // edge's later relay span both parent directly on it, which keeps
    // their timestamps nested in the root interval.
    tracker.bind_seq(config_.id, tx_seq_, root);
    return {{config_.server, std::move(datagram)}};
  }

  std::vector<net::Outgoing> out;
  const auto [serve, refill] =
      cache_.serve(bytes, over, PendingReply{client, root}, now);
  if (serve == Cache::Serve::kHit) {
    auto [served, src] = take_bytes(bytes);
    ctr_.cache_hits->inc();
    obs::span_complete(now, "cache_hit", "edge", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"client", static_cast<double>(client)},
                        {"bytes", static_cast<double>(served.size())},
                        {"src_lo", static_cast<double>(src.lo)},
                        {"src_hi", static_cast<double>(src.hi)}});
    cost_.add(cost::kCraftPacket);
    out.push_back(make_client_delivery(client, std::move(served), root));
  } else {
    if (serve == Cache::Serve::kReserveBlocked) ctr_.heavy_rejections->inc();
    ctr_.cache_misses->inc();
    obs::span_complete(now, "cache_miss", "edge", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"client", static_cast<double>(client)},
                        {"bytes", static_cast<double>(bytes)}});
  }
  cache_gauge_->set(static_cast<std::int64_t>(cache_bytes_.size()));

  const auto sent = send_refill(refill, now);
  out.insert(out.end(), sent.begin(), sent.end());
  return out;
}

std::pair<util::Bytes, ProvenanceLedger::Range> EdgeNode::take_bytes(
    std::size_t n) {
  const auto end = cache_bytes_.begin() + static_cast<long>(n);
  util::Bytes out(cache_bytes_.begin(), end);
  cache_bytes_.erase(cache_bytes_.begin(), end);
  const ProvenanceLedger::Range src = prov_.debit(n);
  prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));
  return {std::move(out), src};
}

std::vector<net::Outgoing> EdgeNode::send_refill(const Cache::Refill& refill,
                                                 util::SimTime now) {
  if (refill.lost) {
    obs::span_end(now, "refill_lost", "edge", config_.id, refill_ctx_, {});
    refill_ctx_ = {};
  }
  if (!refill.issue) return {};
  // The 16-bit argument field carries the request size in bits.
  const std::uint16_t bits = static_cast<std::uint16_t>(
      std::min<std::size_t>(refill.bytes * 8, kMaxRefillBits));
  cost_.add(cost::kCraftPacket);
  ++refill_epoch_;
  schedule_refill_retry();
  // A refill serves whichever requests are queued when data lands and can
  // outlive any one of them, so it is its own trace root (duration = the
  // refill round trip), not a child of the triggering request.
  obs::SpanTracker& tracker = obs::SpanTracker::global();
  refill_ctx_ = tracker.start_trace();
  obs::span_begin(now, "refill", "edge", config_.id, refill_ctx_, 0,
                  {{"bits", static_cast<double>(bits)},
                   {"cache_bytes", static_cast<double>(cache_.size_bytes())}});
  Packet req = Packet::data_request(bits, /*edge_server=*/true);
  util::Bytes datagram = wire(std::move(req));
  tracker.bind_seq(config_.id, tx_seq_, refill_ctx_);
  return {{config_.server, std::move(datagram)}};
}

void EdgeNode::schedule_refill_retry() {
  if (!config_.timer) return;  // lazy traffic-driven timeout still applies
  const std::uint64_t epoch = refill_epoch_;
  config_.timer(
      backoff_delay(kRefillTimeoutNs, refill_retries_, rng_.uniform01()),
      [this, epoch](util::SimTime now) -> std::vector<net::Outgoing> {
        // Only act when *this* refill is still the outstanding one: a
        // response (or a newer refill) bumps state and orphans this timer.
        if (!cache_.refill_outstanding() || refill_epoch_ != epoch) return {};
        if (refill_retries_ >= kMaxRefillRetries) return {};
        cache_.drop_refill();
        ++refill_retries_;
        ctr_.refill_retries->inc();
        // Closes the lost refill's span; send_refill opens a fresh trace.
        obs::span_end(now, "refill_retry", "edge", config_.id, refill_ctx_,
                      {{"attempt", static_cast<double>(refill_retries_)}});
        refill_ctx_ = {};
        return send_refill(cache_.refill(now), now);
      });
}

std::vector<net::Outgoing> EdgeNode::handle_server_data(const Packet& packet,
                                                        util::SimTime now) {
  if (!packet.header.ack) return {};

  if (packet.header.end_to_end) {
    // Relay an end-to-end delivery: [client_id(4) || seal_csk(entropy)].
    // This edge cannot open the sealed part — it only routes it.
    if (packet.payload.size() <= 4) return {};
    const net::NodeId client = util::get_u32_be(packet.payload.data());
    util::Bytes sealed(packet.payload.begin() + 4, packet.payload.end());
    cost_.add(cost::kCraftPacket);
    // Sealed size upper-bounds the plaintext, so the delivered-bytes
    // invariant (Σ client bytes_received ≤ Σ edge bytes_delivered) holds.
    ctr_.bytes_delivered->inc(sealed.size());
    // The server bound its reply to the request's root context.
    obs::SpanTracker& tracker = obs::SpanTracker::global();
    const obs::SpanContext root =
        tracker.lookup_seq(config_.server, packet.header.seq);
    obs::span_complete(now, "relay", "edge", config_.id,
                       {root.trace, tracker.new_span()}, root.span,
                       {{"client", static_cast<double>(client)},
                        {"bytes", static_cast<double>(sealed.size())}});
    Packet fwd = Packet::data_ack_e2e(std::move(sealed),
                                      /*edge_server=*/false);
    util::Bytes datagram = wire(std::move(fwd));
    tracker.bind_seq(config_.id, tx_seq_, root);
    return {{client, std::move(datagram)}};
  }

  cache_.refill_answered(now);
  refill_retries_ = 0;  // a genuine response resets the retry budget

  // The server bound its reply to the refill that asked for it. A reply
  // for the *current* refill closes its span — on every terminal path,
  // usable data or not, or the span would leak open. A stale reply (its
  // refill was already declared lost and re-issued) must not close the
  // newer refill's span. With spans off both contexts are invalid and the
  // guard passes, preserving the plain-event output.
  obs::SpanTracker& tracker = obs::SpanTracker::global();
  const obs::SpanContext reply_ctx =
      tracker.lookup_seq(config_.server, packet.header.seq);
  const bool current = reply_ctx.trace == refill_ctx_.trace;
  const auto close_refill = [&](const char* name, double bytes) {
    if (current) {
      obs::span_end(now, name, "edge", config_.id, refill_ctx_,
                    {{"bytes", bytes}});
      refill_ctx_ = {};
    } else {
      obs::span_event(now, name, "edge", config_.id, reply_ctx,
                      {{"bytes", bytes}, {"stale", 1.0}});
    }
  };

  util::Bytes delivered;
  if (packet.header.encrypted) {
    if (!esk_) return {};
    const auto plain = open(*esk_, packet.payload);
    cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
    if (!plain) {
      // A restarted server no longer holds our esk; its replies (sealed
      // under a key we do not have, or rejected by ours) show up here as
      // repeated open failures. Recover by re-registering.
      close_refill("refill_bad_data", 0.0);
      return note_open_failure(now);
    }
    consecutive_open_failures_ = 0;
    delivered = *plain;
  } else {
    if (esk_) {
      // Downgrade: a registered edge must not accept plaintext deliveries.
      // This is also what a restarted server (which lost our esk) sends,
      // so it feeds the same recovery counter.
      close_refill("refill_bad_data", 0.0);
      return note_open_failure(now);
    }
    delivered = packet.payload;
  }
  if (delivered.empty()) {
    // The server's pool was dry: the round trip completed with no bytes.
    close_refill("refill_empty", 0.0);
    return {};
  }

  // Close the refill trace: the round trip ends where usable data lands.
  close_refill("refill_data", static_cast<double>(delivered.size()));

  // Edge mixing (Fig. 2 downstream step 5) dominates the cache-miss path.
  cost_.add(cost::kEdgeMixPerByte * static_cast<double>(delivered.size()));
  cache_.insert(delivered.size());
  cache_bytes_.insert(cache_bytes_.end(), delivered.begin(), delivered.end());
  while (cache_bytes_.size() > cache_.size_bytes()) cache_bytes_.pop_front();
  // New provenance batch: these bytes entered the cache together.
  prov_.credit(++refill_batch_, delivered.size());
  prov_newest_gauge_->set(static_cast<std::int64_t>(prov_.newest()));
  prov_oldest_gauge_->set(static_cast<std::int64_t>(prov_.oldest()));

  // Answer the queued requests the new data covers.
  std::vector<net::Outgoing> out;
  const Cache::Refill refill =
      cache_.drain(now, [&](const PendingReply& req, std::size_t bytes) {
        auto [served, src] = take_bytes(bytes);
        cost_.add(cost::kCraftPacket);
        // Per-delivery provenance record, tagged with the request's trace.
        obs::span_event(now, "delivery", "edge", config_.id, req.ctx,
                        {{"client", static_cast<double>(req.client)},
                         {"bytes", static_cast<double>(served.size())},
                         {"src_lo", static_cast<double>(src.lo)},
                         {"src_hi", static_cast<double>(src.hi)}});
        out.push_back(
            make_client_delivery(req.client, std::move(served), req.ctx));
      });
  cache_gauge_->set(static_cast<std::int64_t>(cache_bytes_.size()));
  const auto next = send_refill(refill, now);
  out.insert(out.end(), next.begin(), next.end());
  return out;
}

net::Outgoing EdgeNode::make_client_delivery(net::NodeId client,
                                             util::Bytes data,
                                             obs::SpanContext ctx) {
  ctr_.bytes_delivered->inc(data.size());
  const auto key_it = client_keys_.find(client);
  Packet packet = [&] {
    if (key_it != client_keys_.end()) {
      cost_.add(cost::kSealPerByte * static_cast<double>(data.size()));
      util::Bytes sealed = seal(key_it->second, data, csprng_);
      return Packet::data_ack(std::move(sealed), /*edge_server=*/false,
                              /*encrypted=*/true);
    }
    return Packet::data_ack(std::move(data), /*edge_server=*/false,
                            /*encrypted=*/false);
  }();
  util::Bytes datagram = wire(std::move(packet));
  // Lets the client (and its dedup path) join the delivery to the trace.
  obs::SpanTracker::global().bind_seq(config_.id, tx_seq_, ctx);
  return {client, std::move(datagram)};
}

std::vector<net::Outgoing> EdgeNode::note_open_failure(util::SimTime now) {
  if (++consecutive_open_failures_ < kReregisterAfterFailures) return {};
  CADET_LOG_WARN << "edge " << config_.id << ": " << consecutive_open_failures_
                 << " consecutive sealed-open failures; re-registering";
  consecutive_open_failures_ = 0;
  esk_.reset();
  ctr_.reregistrations->inc();
  obs::emit(now, "reregister", "edge", config_.id, {});
  return begin_edge_reg(now, std::move(on_reg_complete_));
}

std::vector<net::Outgoing> EdgeNode::handle_reg_packet(net::NodeId from,
                                                       const Packet& packet,
                                                       util::SimTime now) {
  switch (packet.header.subtype) {
    case RegSubtype::kEdgeRegReqAck: {
      // [s.pub(32) || seal_esk(n+1)(36)] (Fig. 7a packet 2)
      if (!reg_keypair_ || !reg_nonce_) return {};
      if (packet.payload.size() != 32 + 8 + kSealOverhead) return {};
      crypto::X25519Key server_pub;
      std::memcpy(server_pub.data(), packet.payload.data(), 32);
      auto shared = reg_keypair_->shared_secret(server_pub);
      const SharedKey esk =
          derive_key(shared, util::BytesView(kLabelEsk, sizeof(kLabelEsk)));
      util::secure_wipe(shared);
      cost_.add(cost::kX25519);

      const auto nonce_plain =
          open(esk, util::BytesView(packet.payload.data() + 32,
                                    8 + kSealOverhead));
      if (!nonce_plain || nonce_plain->size() != 8) return {};
      const Nonce expected = nonce_add(*reg_nonce_, 1);
      if (!util::ct_equal(*nonce_plain,
                          util::BytesView(expected.data(), expected.size()))) {
        CADET_LOG_WARN << "edge " << config_.id << ": reg nonce mismatch";
        return {};
      }
      esk_ = esk;

      const Nonce confirm = nonce_add(*reg_nonce_, 2);
      util::Bytes sealed = seal(
          *esk_, util::BytesView(confirm.data(), confirm.size()), csprng_);
      cost_.add(cost::kCraftPacket);
      if (on_reg_complete_) on_reg_complete_(now);
      Packet reply = Packet::registration(
          RegSubtype::kEdgeRegAck, std::move(sealed), /*req=*/false,
          /*ack=*/true, /*client_edge=*/false, /*edge_server=*/true,
          /*encrypted=*/true);
      return {{config_.server, wire(std::move(reply))}};
    }

    case RegSubtype::kReregReq: {
      // Client rereg: seal [client_id || h(T)] under esk, forward to the
      // server (Fig. 7c packet 2).
      if (!esk_) {
        CADET_LOG_WARN << "edge " << config_.id
                       << ": rereg before edge registration";
        return {};
      }
      if (packet.payload.size() != 36) return {};
      cost_.add(cost::kSealPerByte * 36 + cost::kCraftPacket);
      util::Bytes sealed = seal(*esk_, packet.payload, csprng_);
      Packet fwd = Packet::registration(
          RegSubtype::kReregFwd, std::move(sealed), /*req=*/true,
          /*ack=*/false, /*client_edge=*/false, /*edge_server=*/true,
          /*encrypted=*/true);
      return {{config_.server, wire(std::move(fwd))}};
    }

    case RegSubtype::kReregAckToEdge: {
      // [client_id(4) || seal_esk(cek)(60) || seal_csk(cek)(60)]
      if (!esk_) return {};
      constexpr std::size_t kSealedKey = 32 + kSealOverhead;
      if (packet.payload.size() != 4 + 2 * kSealedKey) return {};
      const net::NodeId client = util::get_u32_be(packet.payload.data());
      const auto cek_plain =
          open(*esk_, util::BytesView(packet.payload.data() + 4, kSealedKey));
      cost_.add(cost::kSealPerByte * static_cast<double>(packet.payload.size()));
      if (!cek_plain || cek_plain->size() != 32) return {};
      SharedKey cek;
      std::memcpy(cek.data(), cek_plain->data(), 32);
      client_keys_[client] = cek;

      // Forward the client's sealed copy (Fig. 7c packet 4).
      util::Bytes client_part(packet.payload.begin() + 4 + kSealedKey,
                              packet.payload.end());
      cost_.add(cost::kCraftPacket);
      Packet fwd = Packet::registration(
          RegSubtype::kReregAckToClient, std::move(client_part),
          /*req=*/false, /*ack=*/true, /*client_edge=*/true,
          /*edge_server=*/false, /*encrypted=*/true);
      return {{client, wire(std::move(fwd))}};
    }

    default:
      (void)from;
      return {};
  }
}

}  // namespace cadet
