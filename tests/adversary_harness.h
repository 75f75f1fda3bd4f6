// Seeded adversary-scenario runner for the adversarial economics suite:
// builds the paper's testbed, registers it, then drives honest clients
// (WorkloadDriver) alongside hostile ones (AdversaryDriver) and snapshots
// everything the defense assertions need — honest-vs-hostile service
// split, per-attacker penalty/usage state, edge policing totals, and a
// probe stream of actually-delivered entropy for the NIST battery. One
// ScenarioConfig seed fully determines the run (workload arrivals, attack
// arrivals, poison payloads, backoff jitter), so a failing seed reported
// by test_adversary reproduces exactly (docs/ADVERSARIES.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nist/battery.h"
#include "obs/metrics.h"
#include "testbed/adversary.h"
#include "testbed/topology.h"
#include "testbed/workload.h"

namespace cadet::testbed::adversary {

/// The four attack shapes the sweep rotates through (ROADMAP item 3).
enum class AttackMix { kFreeRiders, kPoisoners, kCacheInflation, kSybilBurst };

inline const char* mix_name(AttackMix mix) noexcept {
  switch (mix) {
    case AttackMix::kFreeRiders: return "free-riders";
    case AttackMix::kPoisoners: return "poisoners";
    case AttackMix::kCacheInflation: return "cache-inflation";
    case AttackMix::kSybilBurst: return "sybil-burst";
  }
  return "unknown";
}

struct ScenarioConfig {
  std::uint64_t seed = 1;
  AttackMix mix = AttackMix::kPoisoners;
  /// The paper's 49-node world: 4 networks x 11 clients + 1 server.
  std::size_t num_networks = 4;
  std::size_t clients_per_network = 11;
  /// Hostile clients per network, assigned to the highest client indices
  /// of each network so probes/honest occupy the low ones.
  std::size_t attackers_per_network = 2;
  double horizon_s = 40.0;
  double drain_s = 20.0;
  /// Honest behaviour (balanced-ish mix).
  double honest_request_rate_hz = 0.5;
  double honest_upload_rate_hz = 0.5;
  /// Sybil mix: attackers stay unregistered until this sim time.
  double sybil_burst_at_s = 15.0;
  /// §VI-D3 mitigation armed: bulk uploads need this many distinct
  /// contributors, diluting colluding producers.
  std::size_t min_contributors = 2;
  /// Probe stream: the first client of each network additionally issues a
  /// fixed-cadence request whose delivered bytes are collected for the
  /// quality battery (entropy that actually reached a consumer).
  double probe_period_s = 2.0;
  std::uint16_t probe_bits = 1024;
};

/// Everything the invariant checks look at, snapshotted after the drain.
struct ScenarioResult {
  // Honest side (excludes attackers; includes the probe clients).
  std::uint64_t honest_requests_sent = 0;
  std::uint64_t honest_fulfilled = 0;
  std::uint64_t honest_fallback = 0;
  std::uint64_t honest_expired = 0;
  std::uint64_t honest_pending = 0;
  /// fulfilled / sent over the honest population (0 when nothing sent).
  double honest_fulfillment_ratio = 0.0;
  double honest_p50_s = 0.0;
  double honest_p95_s = 0.0;
  bool honest_blacklisted = false;
  /// Honest clients whose penalty score sits above drop_thresh at run
  /// end. The sanity battery on 32-byte uploads has a real false-positive
  /// rate and the penalty table never decays, so across dozens of honest
  /// clients a few transient delinquency brushes are the battery's own
  /// base rate, not an attack artifact — the suite bounds the count
  /// instead of requiring zero (blacklisting stays strictly zero).
  std::size_t honest_delinquent = 0;
  /// Any non-probe honest client ever ENFORCED as heavy (a request
  /// refused outright after sustained strikes). The instantaneous
  /// ClientEconomics::is_heavy flag is noisy by design — honest Poisson
  /// double-fires cross it for a packet or two — so the invariant the
  /// suite pins is that enforcement never touched an honest client.
  /// Probes run hotter than the honest baseline and are tracked
  /// separately.
  bool honest_heavy = false;
  bool probe_heavy = false;
  std::size_t honest_clients = 0;
  std::size_t hostile_clients = 0;

  // Hostile side (client-engine counters for the attacker indices).
  std::uint64_t hostile_requests_sent = 0;
  std::uint64_t hostile_fulfilled = 0;
  std::uint64_t hostile_fallback = 0;
  std::uint64_t hostile_expired = 0;
  std::uint64_t hostile_pending = 0;

  // Per-attacker defense state, keyed by client index. attacker_heavy is
  // true when the edge either flags the attacker heavy at run end or
  // denied it outright at least once during the run (the flag cycles as
  // denied packets stop advancing the usage clock; the denial count is
  // monotone).
  std::map<std::size_t, double> attacker_penalty;
  std::map<std::size_t, bool> attacker_blacklisted;
  std::map<std::size_t, bool> attacker_heavy;

  // Edge-tier policing totals.
  std::uint64_t heavy_rejections = 0;
  std::uint64_t uploads_dropped_penalty = 0;
  std::uint64_t uploads_rejected_sanity = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Server tier.
  std::uint64_t server_uploads_rejected = 0;
  std::uint64_t quality_checks_run = 0;
  std::uint64_t quality_checks_failed = 0;
  /// Quality battery over the server pool head, run at scenario end.
  std::size_t pool_quality_passed = 0;
  std::size_t pool_quality_total = 0;

  /// Entropy bytes actually delivered to the probe clients.
  util::Bytes probe_bytes;

  AdversaryStats adversary;
  WorkloadMetrics workload;
};

/// Deterministic attacker assignment: the top `attackers_per_network`
/// indices of every network.
inline AdversaryPlan make_plan(const ScenarioConfig& cfg) {
  AdversaryPlan plan;
  plan.seed = cfg.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t net = 0; net < cfg.num_networks; ++net) {
    for (std::size_t a = 0; a < cfg.attackers_per_network; ++a) {
      const std::size_t idx =
          net * cfg.clients_per_network + (cfg.clients_per_network - 1 - a);
      switch (cfg.mix) {
        case AttackMix::kFreeRiders:
          plan.attackers[idx] = AttackerSpec::free_rider();
          break;
        case AttackMix::kPoisoners: {
          AttackerSpec spec = AttackerSpec::poisoner();
          // Colluders alternate payload styles: Bernoulli-biased bits and
          // fixed 0xaa/0x55 patterns.
          spec.patterned = (a % 2 == 1);
          plan.attackers[idx] = spec;
          break;
        }
        case AttackMix::kCacheInflation:
          plan.attackers[idx] = AttackerSpec::cache_inflator();
          break;
        case AttackMix::kSybilBurst:
          plan.attackers[idx] = AttackerSpec::sybil(cfg.sybil_burst_at_s);
          break;
      }
    }
  }
  return plan;
}

inline std::size_t probe_index(const ScenarioConfig& cfg, std::size_t net) {
  return net * cfg.clients_per_network;
}

/// Run the scenario. With `attacked == false` the same world, seed, and
/// honest workload run with every attacker idle — the all-honest baseline
/// the service-level bounds compare against.
inline ScenarioResult run_scenario(const ScenarioConfig& cfg,
                                   bool attacked = true) {
  const AdversaryPlan plan = make_plan(cfg);

  TestbedConfig tc;
  tc.seed = cfg.seed;
  tc.num_networks = cfg.num_networks;
  tc.clients_per_network = cfg.clients_per_network;
  tc.profiles.assign(cfg.num_networks, NetworkProfile::kBalanced);
  tc.min_contributors = cfg.min_contributors;
  // Paper-testbed provisioning (experiments.cpp uses 2^17..2^21): enough
  // headroom to absorb an attack's pre-detection transient — the EWMA
  // cannot flag a flood before its behaviour is distinguishable — while
  // still small enough that an unpoliced flood (~12 kB/s) would drain it
  // dry mid-run, which is exactly what the regression pins against.
  tc.server_seed_bytes = 1 << 17;
  World world(tc);

  world.register_edges();
  if (attacked) {
    // Sybils stay unregistered until their burst fires mid-run.
    register_clients_except_sybils(world, plan);
  } else {
    world.register_clients();
  }

  WorkloadDriver driver(world, cfg.seed ^ 0x5ce7a210ULL);
  AdversaryDriver adversary(world, plan);

  ClientBehavior honest;
  honest.request_rate_hz = cfg.honest_request_rate_hz;
  honest.upload_rate_hz = cfg.honest_upload_rate_hz;

  const util::SimTime t0 = world.simulator().now();
  const util::SimTime t_end = t0 + util::from_seconds(cfg.horizon_s);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    if (plan.is_attacker(i)) continue;  // attackers idle in the baseline
    driver.drive(i, honest, t0, t_end);
  }
  if (attacked) {
    adversary.drive(t0, t_end);
  }

  // Probe stream: fixed-cadence requests whose delivered plaintext is
  // accumulated for the quality battery. Scheduled up front so the count
  // is identical in baseline and attacked runs.
  util::Bytes probe_bytes;
  const std::size_t probes_per_client =
      static_cast<std::size_t>(cfg.horizon_s / cfg.probe_period_s);
  for (std::size_t net = 0; net < cfg.num_networks; ++net) {
    const std::size_t idx = probe_index(cfg, net);
    ClientNode& client = world.client(idx);
    SimNode& node = world.client_sim(idx);
    for (std::size_t k = 0; k < probes_per_client; ++k) {
      const util::SimTime at =
          t0 + util::from_seconds((static_cast<double>(k) + 0.5) *
                                  cfg.probe_period_s);
      world.simulator().schedule_at(at, [&client, &node, &probe_bytes,
                                         &cfg]() {
        node.post([&client, &probe_bytes, &cfg](util::SimTime t) {
          return client.request_entropy(
              cfg.probe_bits, t,
              [&probe_bytes](util::BytesView data, util::SimTime) {
                probe_bytes.insert(probe_bytes.end(), data.begin(),
                                   data.end());
              });
        });
      });
    }
  }

  world.simulator().run_until(t_end + util::from_seconds(cfg.drain_s));
  // Drain every remaining chain (retry timers, queued CPU work) so the
  // convergence assertions see a settled world: under a denial-heavy mix
  // the attackers' retry/fallback chains outlive the wall-clock drain.
  world.simulator().run();

  ScenarioResult r;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    ClientNode& c = world.client(i);
    const std::uint64_t sent =
        world.metrics()
            .counter("cadet_client_requests_sent",
                     obs::tier_labels("client", c.id()))
            .value();
    if (plan.is_attacker(i) && attacked) {
      r.hostile_requests_sent += sent;
      r.hostile_fulfilled += c.requests_fulfilled();
      r.hostile_fallback += c.requests_fallback();
      r.hostile_expired += c.requests_expired();
      r.hostile_pending += c.requests_pending();
      ++r.hostile_clients;
    } else if (!plan.is_attacker(i)) {
      r.honest_requests_sent += sent;
      r.honest_fulfilled += c.requests_fulfilled();
      r.honest_fallback += c.requests_fallback();
      r.honest_expired += c.requests_expired();
      r.honest_pending += c.requests_pending();
      ++r.honest_clients;
    }
  }
  if (r.honest_requests_sent > 0) {
    r.honest_fulfillment_ratio =
        static_cast<double>(r.honest_fulfilled) /
        static_cast<double>(r.honest_requests_sent);
  }
  const WorkloadMetrics& wm = driver.metrics();
  if (wm.response_times_s.count() > 0) {
    r.honest_p50_s = wm.response_times_s.quantile(0.50);
    r.honest_p95_s = wm.response_times_s.quantile(0.95);
  }

  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    EdgeNode& e = world.edge(k);
    const auto stats = e.stats();
    r.heavy_rejections += stats.heavy_rejections;
    r.uploads_dropped_penalty += stats.uploads_dropped_penalty;
    r.uploads_rejected_sanity += stats.uploads_rejected_sanity;
    r.cache_hits += stats.cache_hits;
    r.cache_misses += stats.cache_misses;
    for (std::size_t i = 0; i < cfg.clients_per_network; ++i) {
      const std::size_t idx = k * cfg.clients_per_network + i;
      const net::NodeId cid = client_id(idx);
      if (plan.is_attacker(idx) && attacked) {
        r.attacker_penalty[idx] = e.economics().penalty(cid);
        r.attacker_blacklisted[idx] = e.economics().is_blacklisted(cid);
        r.attacker_heavy[idx] =
            e.economics().is_heavy(cid) || e.heavy_denials(cid) > 0;
      } else if (!plan.is_attacker(idx)) {
        if (e.economics().is_blacklisted(cid)) r.honest_blacklisted = true;
        if (e.economics().is_delinquent(cid)) ++r.honest_delinquent;
        if (e.heavy_denials(cid) > 0) {
          if (idx == probe_index(cfg, k)) {
            r.probe_heavy = true;
          } else {
            r.honest_heavy = true;
          }
        }
      }
    }
  }

  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    const auto stats = world.server(j).stats();
    r.server_uploads_rejected += stats.uploads_rejected_sanity;
    r.quality_checks_run += stats.quality_checks_run;
    r.quality_checks_failed += stats.quality_checks_failed;
  }
  const nist::BatteryResult pool_check = world.server().run_quality_check();
  r.pool_quality_passed = static_cast<std::size_t>(pool_check.passed());
  r.pool_quality_total = static_cast<std::size_t>(pool_check.total());

  r.probe_bytes = std::move(probe_bytes);
  r.adversary = adversary.stats();
  r.workload = driver.metrics();
  return r;
}

/// The attack mixes the seed sweep rotates through.
inline ScenarioConfig mix_for_seed(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = 20250800 + seed;
  switch (seed % 4) {
    case 0: cfg.mix = AttackMix::kFreeRiders; break;
    case 1: cfg.mix = AttackMix::kPoisoners; break;
    case 2: cfg.mix = AttackMix::kCacheInflation; break;
    default: cfg.mix = AttackMix::kSybilBurst; break;
  }
  return cfg;
}

}  // namespace cadet::testbed::adversary
