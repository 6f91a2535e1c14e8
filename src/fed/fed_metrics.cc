#include "fed/fed_metrics.h"

#include "fed/protocol.h"

namespace vf2boost {

PartyMetrics PartyMetrics::Create(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  PartyMetrics m;
  m.encryptions = registry->GetCounter(prefix + "/encryptions");
  m.decryptions = registry->GetCounter(prefix + "/decryptions");
  m.hadds = registry->GetCounter(prefix + "/hadds");
  m.scalings = registry->GetCounter(prefix + "/scalings");
  m.packs = registry->GetCounter(prefix + "/packs");
  m.splits_a = registry->GetCounter(prefix + "/splits_a");
  m.splits_b = registry->GetCounter(prefix + "/splits_b");
  m.leaves = registry->GetCounter(prefix + "/leaves");
  m.optimistic_splits = registry->GetCounter(prefix + "/optimistic_splits");
  m.dirty_nodes = registry->GetCounter(prefix + "/dirty_nodes");
  m.redone_hist_builds =
      registry->GetCounter(prefix + "/redone_hist_builds");
  m.derived_hists = registry->GetCounter(prefix + "/derived_hists");
  m.inbox_high_water =
      registry->GetGauge(prefix + "/inbox_high_water", "messages");
  m.bytes_sent = registry->GetGauge(prefix + "/bytes_sent", "bytes");
  m.noise_pool_hits = registry->GetCounter(prefix + "/noise_pool/hits");
  m.noise_pool_misses = registry->GetCounter(prefix + "/noise_pool/misses");
  m.noise_pool_produced =
      registry->GetCounter(prefix + "/noise_pool/produced");
  m.noise_pool_fill =
      registry->GetGauge(prefix + "/noise_pool/fill", "nonces");
  m.pool_queue_high_water =
      registry->GetGauge(prefix + "/pool_queue_high_water", "tasks");
  m.pool_busy_workers =
      registry->GetGauge(prefix + "/pool/busy_workers", "workers");
  m.pool_size = registry->GetGauge(prefix + "/pool/size", "workers");
  m.reconnects = registry->GetCounter(prefix + "/session/reconnects");
  m.trees_resumed = registry->GetCounter(prefix + "/session/trees_resumed");
  m.features = registry->GetGauge(prefix + "/features", "features");
  m.ciphers_sent = registry->GetCounter(prefix + "/ciphers_sent");
  m.gh_pack_ratio =
      registry->GetGauge(prefix + "/gh_pack_ratio", "values/cipher");
  m.trees_finished = registry->GetCounter(prefix + "/trees_finished");
  m.phase_encrypt = registry->GetHistogram(prefix + "/phase/encrypt");
  m.phase_build_hist = registry->GetHistogram(prefix + "/phase/build_hist");
  m.phase_pack = registry->GetHistogram(prefix + "/phase/pack");
  m.phase_decrypt = registry->GetHistogram(prefix + "/phase/decrypt");
  m.phase_find_split = registry->GetHistogram(prefix + "/phase/find_split");
  m.phase_comm_wait = registry->GetHistogram(prefix + "/phase/comm_wait");
  return m;
}

FedStats PartyMetrics::Snapshot(bool is_b) const {
  FedStats s;
  s.encryptions = encryptions->value();
  s.decryptions = decryptions->value();
  s.hadds = hadds->value();
  s.scalings = scalings->value();
  s.packs = packs->value();
  s.splits_a = splits_a->value();
  s.splits_b = splits_b->value();
  s.leaves = leaves->value();
  s.optimistic_splits = optimistic_splits->value();
  s.dirty_nodes = dirty_nodes->value();
  s.redone_hist_builds = redone_hist_builds->value();
  s.derived_hists = derived_hists->value();
  s.inbox_high_water = static_cast<size_t>(inbox_high_water->value());
  s.noise_pool_hits = noise_pool_hits->value();
  s.noise_pool_misses = noise_pool_misses->value();
  s.noise_pool_produced = noise_pool_produced->value();
  s.reconnects = reconnects->value();
  s.trees_resumed = trees_resumed->value();
  PhaseTimes& pt = is_b ? s.party_b : s.party_a;
  pt.encrypt = phase_encrypt->sum();
  pt.build_hist = phase_build_hist->sum();
  pt.pack = phase_pack->sum();
  pt.decrypt = phase_decrypt->sum();
  pt.find_split = phase_find_split->sum();
  pt.comm_wait = phase_comm_wait->sum();
  if (is_b) {
    s.bytes_b_to_a = static_cast<size_t>(bytes_sent->value());
  } else {
    s.bytes_a_to_b = static_cast<size_t>(bytes_sent->value());
  }
  return s;
}

}  // namespace vf2boost
