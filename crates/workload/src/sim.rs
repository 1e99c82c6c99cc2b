//! The clinical workflow generator.

use crate::population::ZipfPopulation;
use prima_audit::{AuditEntry, AuditStore};
use prima_model::{GroundRule, Policy, PolicyMatcher, Rule};
use prima_vocab::{Vocabulary, ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A recurring informal-practice workflow: staff in `role` habitually
/// access `data` for `purpose` through the exception mechanism. These are
/// the needles the refinement pipeline must find.
#[derive(Debug, Clone, PartialEq)]
pub struct PracticeCluster {
    /// Data category accessed (ground value preferred; composite values are
    /// narrowed to a leaf per entry).
    pub data: String,
    /// Purpose of access.
    pub purpose: String,
    /// The acting role.
    pub role: String,
    /// Relative frequency among informal entries (weights are normalized).
    pub weight: f64,
}

impl PracticeCluster {
    /// Creates a cluster with weight 1.
    pub fn new(data: &str, purpose: &str, role: &str) -> Self {
        Self {
            data: data.into(),
            purpose: purpose.into(),
            role: role.into(),
            weight: 1.0,
        }
    }

    /// Sets the relative weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// The cluster's ground-truth rule.
    pub fn to_ground_rule(&self) -> GroundRule {
        GroundRule::access(&self.data, &self.purpose, &self.role)
            .expect("practice clusters name non-empty values")
    }
}

/// Ground-truth label of a generated entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryLabel {
    /// A policy-sanctioned task performed through the regular flow.
    Sanctioned,
    /// Informal practice from cluster `i` (index into the simulator's
    /// cluster list).
    InformalPractice(usize),
    /// Illegitimate access (noise the miner must not propose as policy).
    Violation,
}

/// A generated entry with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledEntry {
    /// The audit entry as the system would record it.
    pub entry: AuditEntry,
    /// Why the simulator generated it.
    pub label: EntryLabel,
}

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed — same seed, same trail.
    pub seed: u64,
    /// Number of entries to generate.
    pub n_entries: usize,
    /// Staff members simulated per ground role.
    pub staff_per_role: usize,
    /// Share of entries drawn from informal-practice clusters.
    pub informal_share: f64,
    /// Share of entries that are violations.
    pub violation_share: f64,
    /// Timestamp of the first entry.
    pub start_time: i64,
    /// Mean seconds between consecutive entries.
    pub mean_gap_secs: i64,
    /// Optional Zipf exponent for staff activity within a role: when
    /// set, staff member `k` of a role acts with probability ∝
    /// `1/(k+1)^s` (a few workhorses, a long tail) instead of uniformly.
    /// `None` preserves the historical uniform draw bit-for-bit.
    pub staff_zipf: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            n_entries: 10_000,
            staff_per_role: 8,
            informal_share: 0.20,
            violation_share: 0.02,
            start_time: 0,
            mean_gap_secs: 30,
            staff_zipf: None,
        }
    }
}

/// The workflow simulator: a vocabulary, the organization's (possibly
/// incomplete) policy, and the informal-practice clusters the policy is
/// missing.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The base policy and the vocabulary, which also decides whether a
    /// sampled access is sanctioned.
    matcher: PolicyMatcher,
    clusters: Vec<PracticeCluster>,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new(vocab: Vocabulary, policy: Policy, clusters: Vec<PracticeCluster>) -> Self {
        Self {
            matcher: PolicyMatcher::with_shared_vocab(&policy, Arc::new(vocab)),
            clusters,
        }
    }

    /// The informal-practice ground truth, in cluster order.
    pub fn ground_truth(&self) -> Vec<GroundRule> {
        self.clusters
            .iter()
            .map(PracticeCluster::to_ground_rule)
            .collect()
    }

    /// The base policy the trail is generated against.
    pub fn policy(&self) -> &Policy {
        self.matcher.policy()
    }

    /// Generates a labelled trail of `config.n_entries` entries.
    pub fn generate(&self, config: &SimConfig) -> Vec<LabeledEntry> {
        self.events(config).take(config.n_entries).collect()
    }

    /// An unbounded live event source: the same generator as
    /// [`Self::generate`], but lazy — entries are produced one at a
    /// time, in event-time order, for feeding a streaming consumer
    /// (e.g. `prima_stream::StreamEngine::ingest`) without
    /// materializing a trail first. `config.n_entries` is ignored; the
    /// iterator never ends. Determinism carries over: the first
    /// `n_entries` items equal `generate(config)`.
    pub fn events(&self, config: &SimConfig) -> EventSource<'_> {
        EventSource {
            sim: self,
            config: config.clone(),
            rng: StdRng::seed_from_u64(config.seed),
            time: config.start_time,
            ground_roles: self.ground_values(ATTR_AUTHORIZED),
            ground_data: self.ground_values(ATTR_DATA),
            ground_purposes: self.ground_values(ATTR_PURPOSE),
            cluster_rules: self.ground_truth(),
            total_weight: self.clusters.iter().map(|c| c.weight).sum(),
            staff_skew: config
                .staff_zipf
                .map(|s| ZipfPopulation::new(config.staff_per_role.max(1), s)),
        }
    }

    fn ground_values(&self, attr: &str) -> Vec<String> {
        match self.matcher.vocab().attribute(attr) {
            Some(t) => t
                .all_leaves()
                .into_iter()
                .map(|id| t.name(id).to_string())
                .collect(),
            None => Vec::new(),
        }
    }

    fn staff_name(
        rng: &mut StdRng,
        role: &str,
        config: &SimConfig,
        skew: Option<&ZipfPopulation>,
    ) -> String {
        let i = match skew {
            Some(pop) => pop.sample(rng),
            None => rng.gen_range(0..config.staff_per_role.max(1)),
        };
        format!("{role}-{i:02}")
    }

    /// Narrows a (possibly composite) value to one ground leaf.
    fn narrow(&self, rng: &mut StdRng, attr: &str, value: &str) -> String {
        let leaves = self.matcher.vocab().ground_values(attr, value);
        leaves
            .choose(rng)
            .cloned()
            .unwrap_or_else(|| value.to_string())
    }

    fn gen_sanctioned(
        &self,
        rng: &mut StdRng,
        time: i64,
        config: &SimConfig,
        skew: Option<&ZipfPopulation>,
    ) -> LabeledEntry {
        // Fallback for an empty policy: a generic administrative touch.
        let Some(rule) = self.pick_rule(rng) else {
            let entry = AuditEntry::regular(time, "admin-00", "name", "registration", "registrar");
            return LabeledEntry {
                entry,
                label: EntryLabel::Sanctioned,
            };
        };
        let data = self.narrow(rng, ATTR_DATA, rule.value_of(ATTR_DATA).unwrap_or("name"));
        let purpose = self.narrow(
            rng,
            ATTR_PURPOSE,
            rule.value_of(ATTR_PURPOSE).unwrap_or("treatment"),
        );
        let role = self.narrow(
            rng,
            ATTR_AUTHORIZED,
            rule.value_of(ATTR_AUTHORIZED).unwrap_or("nurse"),
        );
        let user = Self::staff_name(rng, &role, config, skew);
        LabeledEntry {
            entry: AuditEntry::regular(time, &user, &data, &purpose, &role),
            label: EntryLabel::Sanctioned,
        }
    }

    fn pick_rule(&self, rng: &mut StdRng) -> Option<&Rule> {
        let rules = self.policy().rules();
        if rules.is_empty() {
            None
        } else {
            rules.get(rng.gen_range(0..rules.len()))
        }
    }

    fn gen_informal(
        &self,
        rng: &mut StdRng,
        time: i64,
        config: &SimConfig,
        total_weight: f64,
        skew: Option<&ZipfPopulation>,
    ) -> LabeledEntry {
        // Weighted cluster choice.
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut idx = 0usize;
        for (i, c) in self.clusters.iter().enumerate() {
            if pick < c.weight {
                idx = i;
                break;
            }
            pick -= c.weight;
            idx = i;
        }
        let c = &self.clusters[idx];
        let data = self.narrow(rng, ATTR_DATA, &c.data);
        let purpose = self.narrow(rng, ATTR_PURPOSE, &c.purpose);
        let role = self.narrow(rng, ATTR_AUTHORIZED, &c.role);
        let user = Self::staff_name(rng, &role, config, skew);
        LabeledEntry {
            entry: AuditEntry::exception(time, &user, &data, &purpose, &role),
            label: EntryLabel::InformalPractice(idx),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_violation(
        &self,
        rng: &mut StdRng,
        time: i64,
        config: &SimConfig,
        data: &[String],
        purposes: &[String],
        roles: &[String],
        cluster_rules: &[GroundRule],
        skew: Option<&ZipfPopulation>,
    ) -> LabeledEntry {
        // Rejection-sample a combination that is neither sanctioned nor an
        // informal-practice cluster, so labels stay mutually exclusive.
        for _ in 0..64 {
            let d = data.choose(rng).expect("non-empty");
            let p = purposes.choose(rng).expect("non-empty");
            let r = roles.choose(rng).expect("non-empty");
            let g = GroundRule::access(d, p, r).expect("taxonomy leaves are non-empty");
            if self.matcher.covers(&g) || cluster_rules.contains(&g) {
                continue;
            }
            let user = Self::staff_name(rng, r, config, skew);
            return LabeledEntry {
                entry: AuditEntry::exception(time, &user, d, p, r),
                label: EntryLabel::Violation,
            };
        }
        // Statistically unreachable for real vocabularies; degrade to an
        // obviously-foreign access rather than loop forever.
        LabeledEntry {
            entry: AuditEntry::exception(time, "intruder-00", "ssn", "telemarketing", "visitor"),
            label: EntryLabel::Violation,
        }
    }
}

/// The lazy generator behind [`Simulator::events`]. Never exhausts.
#[derive(Debug)]
pub struct EventSource<'a> {
    sim: &'a Simulator,
    config: SimConfig,
    rng: StdRng,
    time: i64,
    ground_roles: Vec<String>,
    ground_data: Vec<String>,
    ground_purposes: Vec<String>,
    cluster_rules: Vec<GroundRule>,
    total_weight: f64,
    staff_skew: Option<ZipfPopulation>,
}

impl EventSource<'_> {
    /// Event time of the most recently emitted entry (the source's
    /// watermark); `config.start_time` before the first entry.
    pub fn current_time(&self) -> i64 {
        self.time
    }
}

impl Iterator for EventSource<'_> {
    type Item = LabeledEntry;

    fn next(&mut self) -> Option<LabeledEntry> {
        let config = &self.config;
        self.time += self.rng.gen_range(1..=config.mean_gap_secs.max(1) * 2);
        let draw: f64 = self.rng.gen();
        let skew = self.staff_skew.as_ref();
        let labeled = if draw < config.violation_share && !self.ground_data.is_empty() {
            self.sim.gen_violation(
                &mut self.rng,
                self.time,
                config,
                &self.ground_data,
                &self.ground_purposes,
                &self.ground_roles,
                &self.cluster_rules,
                skew,
            )
        } else if draw < config.violation_share + config.informal_share
            && !self.sim.clusters.is_empty()
        {
            self.sim
                .gen_informal(&mut self.rng, self.time, config, self.total_weight, skew)
        } else {
            self.sim
                .gen_sanctioned(&mut self.rng, self.time, config, skew)
        };
        Some(labeled)
    }
}

/// Strips labels.
pub fn entries(labeled: &[LabeledEntry]) -> Vec<AuditEntry> {
    labeled.iter().map(|l| l.entry.clone()).collect()
}

/// Loads a trail into a fresh audit store named `name`.
pub fn to_store(labeled: &[LabeledEntry], name: &str) -> AuditStore {
    let store = AuditStore::new(name);
    let es = entries(labeled);
    store
        .append_all(&es)
        .expect("simulated entries conform to the audit schema");
    store
}

/// Round-robins a trail across `n` site stores (for federation
/// experiments).
pub fn split_sites(labeled: &[LabeledEntry], n: usize) -> Vec<AuditStore> {
    let n = n.max(1);
    let stores: Vec<AuditStore> = (0..n)
        .map(|i| AuditStore::new(&format!("site-{i}")))
        .collect();
    for (i, l) in labeled.iter().enumerate() {
        stores[i % n]
            .append(&l.entry)
            .expect("simulated entries conform to the audit schema");
    }
    stores
}

/// Label census: `(sanctioned, informal, violation)` counts.
pub fn census(labeled: &[LabeledEntry]) -> (usize, usize, usize) {
    let mut s = 0;
    let mut i = 0;
    let mut v = 0;
    for l in labeled {
        match l.label {
            EntryLabel::Sanctioned => s += 1,
            EntryLabel::InformalPractice(_) => i += 1,
            EntryLabel::Violation => v += 1,
        }
    }
    (s, i, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn sim() -> Simulator {
        Scenario::community_hospital().simulator()
    }

    fn config(n: usize) -> SimConfig {
        SimConfig {
            n_entries: n,
            ..SimConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = sim();
        let a = s.generate(&config(500));
        let b = s.generate(&config(500));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let s = sim();
        let a = s.generate(&config(200));
        let b = s.generate(&SimConfig {
            seed: 43,
            ..config(200)
        });
        assert_ne!(a, b);
    }

    #[test]
    fn shares_are_approximately_honoured() {
        let s = sim();
        let trail = s.generate(&config(10_000));
        let (sanc, informal, viol) = census(&trail);
        assert_eq!(sanc + informal + viol, 10_000);
        let informal_share = informal as f64 / 10_000.0;
        let violation_share = viol as f64 / 10_000.0;
        assert!(
            (informal_share - 0.20).abs() < 0.02,
            "informal share {informal_share}"
        );
        assert!(
            (violation_share - 0.02).abs() < 0.01,
            "violation share {violation_share}"
        );
    }

    #[test]
    fn labels_match_status_bits() {
        let s = sim();
        for l in s.generate(&config(2_000)) {
            match l.label {
                EntryLabel::Sanctioned => assert!(!l.entry.is_exception()),
                _ => assert!(l.entry.is_exception()),
            }
        }
    }

    #[test]
    fn sanctioned_entries_are_policy_covered() {
        let s = sim();
        let scenario = Scenario::community_hospital();
        for l in s.generate(&config(1_000)) {
            if l.label == EntryLabel::Sanctioned {
                let g = l.entry.to_ground_rule().unwrap();
                let covered = s
                    .policy()
                    .rules()
                    .iter()
                    .any(|r| r.expansion_contains(&g, &scenario.vocab));
                assert!(covered, "sanctioned entry {g} must be policy-covered");
            }
        }
    }

    #[test]
    fn violations_are_never_policy_covered_nor_clusters() {
        let s = sim();
        let scenario = Scenario::community_hospital();
        let truth = s.ground_truth();
        for l in s.generate(&config(5_000)) {
            if l.label == EntryLabel::Violation {
                let g = l.entry.to_ground_rule().unwrap();
                let covered = s
                    .policy()
                    .rules()
                    .iter()
                    .any(|r| r.expansion_contains(&g, &scenario.vocab));
                assert!(!covered, "violation {g} must not be sanctioned");
                assert!(!truth.contains(&g), "violation {g} must not be a cluster");
            }
        }
    }

    #[test]
    fn timestamps_are_strictly_increasing() {
        let s = sim();
        let trail = s.generate(&config(300));
        for w in trail.windows(2) {
            assert!(w[1].entry.time > w[0].entry.time);
        }
    }

    #[test]
    fn zipf_staff_skew_concentrates_users_deterministically() {
        let s = sim();
        let cfg = SimConfig {
            staff_per_role: 32,
            staff_zipf: Some(1.2),
            ..config(4_000)
        };
        let a = s.generate(&cfg);
        assert_eq!(a, s.generate(&cfg), "skewed generation stays seeded");

        // Index-00 staff (the hottest rank in every role) must dominate:
        // under a uniform draw they would hold ~1/32 ≈ 3% of entries.
        let hot =
            a.iter().filter(|l| l.entry.user.ends_with("-00")).count() as f64 / a.len() as f64;
        assert!(
            hot > 0.15,
            "zipf head share {hot} should dwarf uniform 1/32"
        );

        let uniform = s.generate(&config(4_000));
        assert_ne!(a, uniform, "skew changes the trail");
    }

    #[test]
    fn split_sites_round_robins_everything() {
        let s = sim();
        let trail = s.generate(&config(100));
        let sites = split_sites(&trail, 3);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites.iter().map(AuditStore::len).sum::<usize>(), 100);
        assert_eq!(sites[0].len(), 34);
    }

    #[test]
    fn to_store_loads_everything() {
        let s = sim();
        let trail = s.generate(&config(50));
        let store = to_store(&trail, "test");
        assert_eq!(store.len(), 50);
    }

    #[test]
    fn event_source_prefix_equals_generate() {
        let s = sim();
        let cfg = config(400);
        let streamed: Vec<LabeledEntry> = s.events(&cfg).take(400).collect();
        assert_eq!(streamed, s.generate(&cfg));
    }

    #[test]
    fn event_source_is_unbounded_and_tracks_time() {
        let s = sim();
        let cfg = config(3); // n_entries is ignored by the source
        let mut source = s.events(&cfg);
        assert_eq!(source.current_time(), cfg.start_time);
        let first = source.next().unwrap();
        assert_eq!(source.current_time(), first.entry.time);
        // Far past n_entries: still producing, times still increasing.
        let later: Vec<LabeledEntry> = source.by_ref().take(100).collect();
        assert_eq!(later.len(), 100);
        assert!(later.windows(2).all(|w| w[1].entry.time > w[0].entry.time));
    }
}
