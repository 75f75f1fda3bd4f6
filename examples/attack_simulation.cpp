// Attack simulation: the three threat vectors of paper §VI-D driven
// against a live simulated deployment.
//
//  1. Randomness degradation — a botnet bulk-uploads known/bad data; the
//     sanity checks + penalty tables blacklist it and the pool's NIST
//     quality holds.
//  2. Service degradation — an aggressive client tries to drain the edge
//     cache; the usage score + reserve cache shield regular clients.
//  3. Eavesdropping — a passive observer captures a sealed delivery and
//     fails to decrypt or tamper with it.
#include <cstdio>

#include "cadet/seal.h"
#include "entropy/sources.h"
#include "testbed/topology.h"
#include "testbed/workload.h"

using namespace cadet;
using namespace cadet::testbed;

static void randomness_degradation() {
  std::printf("--- 1. Randomness degradation (bot uploads) ---\n");
  TestbedConfig config;
  config.seed = 21;
  config.num_networks = 1;
  config.clients_per_network = 8;
  config.profiles = {NetworkProfile::kBalanced};
  World world(config);
  world.register_edges();

  WorkloadDriver driver(world, 22);
  // Clients 0-3: honest producers. Clients 4-7: bots flooding bad data.
  ClientBehavior honest;
  honest.upload_rate_hz = 2.0;
  honest.upload_bytes = 32;
  ClientBehavior bot = honest;
  bot.upload_rate_hz = 6.0;
  bot.bad_fraction = 1.0;
  bot.bad_bias = 0.80;
  for (std::size_t i = 0; i < 4; ++i) {
    driver.drive(i, honest, 0, util::from_seconds(300));
  }
  for (std::size_t i = 4; i < 8; ++i) {
    driver.drive(i, bot, 0, util::from_seconds(300));
  }
  world.simulator().run();

  EdgeNode& edge = world.edge(0);
  int blacklisted = 0;
  for (std::size_t i = 4; i < 8; ++i) {
    if (edge.economics().is_blacklisted(client_id(i))) ++blacklisted;
  }
  std::printf("bots blacklisted: %d/4  (honest delinquent: %s)\n",
              blacklisted,
              edge.economics().is_delinquent(client_id(0)) ? "yes" : "no");
  std::printf("edge rejected %llu uploads by sanity check, ignored %llu by "
              "penalty\n",
              static_cast<unsigned long long>(
                  edge.stats().uploads_rejected_sanity),
              static_cast<unsigned long long>(
                  edge.stats().uploads_dropped_penalty));

  const auto quality = world.server().run_quality_check();
  std::printf("server pool quality after attack: %d/%d NIST tests pass\n\n",
              quality.passed(), quality.total());
}

static void service_degradation() {
  std::printf("--- 2. Service degradation (cache draining) ---\n");
  TestbedConfig config;
  config.seed = 31;
  config.num_networks = 1;
  config.clients_per_network = 8;
  config.profiles = {NetworkProfile::kBalanced};
  config.server_seed_bytes = 1 << 20;
  World world(config);
  world.register_edges();

  WorkloadDriver driver(world, 32);
  ClientBehavior regular;
  regular.request_rate_hz = 0.3;
  regular.request_bits = 512;
  ClientBehavior attacker;
  attacker.request_rate_hz = 6.0;
  attacker.request_bits = 4096;
  for (std::size_t i = 0; i < 7; ++i) {
    driver.drive(i, regular, 0, util::from_seconds(300));
  }
  // Attacker joins after a quiet minute so its burst stands out.
  driver.drive(7, regular, 0, util::from_seconds(60));
  driver.drive(7, attacker, util::from_seconds(60), util::from_seconds(300));
  world.simulator().run();

  util::Samples regular_rt, attacker_rt;
  for (const auto& ev : driver.metrics().events) {
    if (ev.sent_at_s < 60) continue;
    (ev.client == client_id(7) ? attacker_rt : regular_rt)
        .add(ev.response_time_s);
  }
  std::printf("regular clients during attack: mean %.3f s (p95 %.3f s)\n",
              regular_rt.mean(), regular_rt.quantile(0.95));
  std::printf("attacker:                      mean %.3f s (p95 %.3f s)\n",
              attacker_rt.mean(), attacker_rt.quantile(0.95));
  std::printf("attacker flagged heavy: %s; heavy-reserve rejections: %llu\n\n",
              world.edge(0).economics().is_heavy(client_id(7)) ? "yes" : "no",
              static_cast<unsigned long long>(
                  world.edge(0).stats().heavy_rejections));
}

static void eavesdropping() {
  std::printf("--- 3. Eavesdropping (passive capture) ---\n");
  // A sealed delivery (nonce || ciphertext || tag) captured off the wire.
  crypto::Csprng rng(std::uint64_t{0x5eedca11ab1eULL});
  const auto cek = rng.array<32>();
  util::Xoshiro256 data_rng(42);
  const auto entropy_payload = data_rng.bytes(64);
  const auto sealed = seal(cek, entropy_payload, rng);
  std::printf("captured %zu-byte sealed delivery\n", sealed.size());

  // Attacker guesses keys: every attempt fails authentication.
  int successes = 0;
  for (std::uint64_t guess = 0; guess < 1000; ++guess) {
    crypto::Csprng guess_rng(guess);
    const auto wrong_key = guess_rng.array<32>();
    if (open(wrong_key, sealed).has_value()) ++successes;
  }
  std::printf("decryptions with 1000 guessed keys: %d\n", successes);

  // Tampering with any byte invalidates the delivery.
  auto tampered = sealed;
  tampered[tampered.size() / 2] ^= 0x01;
  std::printf("tampered delivery accepted: %s\n",
              open(cek, tampered).has_value() ? "yes" : "no");
  std::printf("legitimate key still works: %s\n",
              open(cek, sealed).has_value() ? "yes" : "no");
}

int main() {
  std::printf("=== CADET attack simulation (paper SVI-D threat vectors) ===\n\n");
  randomness_degradation();
  service_degradation();
  eavesdropping();
  return 0;
}
