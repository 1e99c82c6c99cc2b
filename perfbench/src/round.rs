//! Workload `round`: the batch refinement path.
//!
//! A ~200k-entry `regional_network` trail is split over four site stores
//! and refined in cycles of three `run_round(AutoAccept)` calls on a
//! fresh system: round 1 refines, rounds 2–3 are the steady-state rounds
//! of a periodic schedule. Every batch layer (federate, ground, coverage
//! twice, filter, mine, prune, review) does whole-trail work here and no
//! work in the other two workloads.

use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::Samples;
use prima_audit::{AuditEntry, NoViolations};
use prima_core::{PrimaSystem, ReviewMode, RoundRecord};
use prima_mining::{Miner, Pattern, SqlMiner};
use prima_model::{CoverageEngine, GroundRule};
use prima_refine::extract::practice_table;
use prima_refine::filter::filter_with;
use prima_refine::prune::prune;
use prima_workload::sim::{split_sites, LabeledEntry};
use prima_workload::{scenario::score_patterns, Scenario, SimConfig};
use std::time::{Duration, Instant};

/// Trail size: large enough that the absolute `f = 5` mining threshold
/// lets violations through, so mining quality is visible too.
const TRAIL_ENTRIES: usize = 200_000;
/// Site stores the trail is federated over.
const SITES: usize = 4;
/// Rounds per cycle.
const ROUNDS: usize = 3;
/// Cycles every run makes, however short its time budget.
const MIN_CYCLES: usize = 3;

/// The generated inputs (outside every timed region).
struct Inputs {
    scenario: Scenario,
    trail: Vec<LabeledEntry>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let scenario = Scenario::regional_network();
        let trail = scenario.simulator().generate(&SimConfig {
            seed,
            n_entries: TRAIL_ENTRIES,
            ..SimConfig::default()
        });
        Self { scenario, trail }
    }

    /// Set-up: loads the trail into four site stores and builds the system
    /// over them.
    fn system(&self) -> PrimaSystem {
        let mut system =
            PrimaSystem::new(self.scenario.vocab.clone(), self.scenario.policy.clone());
        for store in split_sites(&self.trail, SITES) {
            system
                .attach_store(store)
                .expect("site store names are unique");
        }
        system
    }
}

/// Precision of every pattern the cycle proposed against the scenario's
/// ground-truth clusters.
fn precision(system: &PrimaSystem, truth: &[GroundRule]) -> f64 {
    let proposed: Vec<Pattern> = system
        .review()
        .candidates()
        .iter()
        .map(|c| c.pattern.clone())
        .collect();
    score_patterns(&proposed, truth).precision()
}

/// Untraced run: end-to-end figures.
pub fn run(seed: u64, budget: Duration, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let truth = inputs.scenario.ground_truth();
    let mut setup = Samples::new();
    let mut rounds = Samples::new();
    // `RoundRecord` has no `PartialEq`; its `Debug` text lists every field.
    let mut first_cycle: Option<String> = None;
    let mut entries_refined = 0usize;
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || started.elapsed() < budget {
        let t = Instant::now();
        let mut system = inputs.system();
        setup.push(t.elapsed().as_nanos() as f64);
        let mut records = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let record = system.run_round(ReviewMode::AutoAccept);
            rounds.push(t.elapsed().as_nanos() as f64);
            out.attempted += 1;
            match record {
                Ok(r) => {
                    entries_refined += r.audit_entries;
                    records.push(r);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: run_round failed: {e}");
                }
            }
        }
        check_cycle(out, &records);
        let p = precision(&system, &truth);
        out.check(p > 0.0, || {
            format!("cycle proposed no true cluster (precision {p})")
        });
        let cycle = format!("{records:?}");
        match &first_cycle {
            None => first_cycle = Some(cycle),
            Some(first) => out.check(*first == cycle, || {
                format!("cycle {cycles} differs from cycle 0 on the same inputs")
            }),
        }
        cycles += 1;
    }
    out.quantile("setup_s", "s", setup.median(), 1e9);
    out.quantile("p50_ms", "ms", rounds.median(), 1e6);
    out.quantile("tail_ms", "ms", rounds.percentile(90.0), 1e6);
    let samples = rounds.len();
    out.metric(
        "throughput_per_s",
        "1/s",
        entries_refined as f64 / (rounds.sum() / 1e9),
        samples,
    );
}

/// Round 1 refines; the later rounds find nothing new and never lose
/// coverage.
fn check_cycle(out: &mut Outcome, records: &[RoundRecord]) {
    out.check(records.len() == ROUNDS, || "a round failed".into());
    for (i, r) in records.iter().enumerate() {
        let (entries, added) = (r.audit_entries, r.rules_added);
        let (before, after) = (r.entry_coverage_before, r.entry_coverage_after);
        out.check(entries == TRAIL_ENTRIES, || {
            format!(
                "round {} saw {entries} entries, want {TRAIL_ENTRIES}",
                i + 1
            )
        });
        let refined = if i == 0 {
            added > 0 && after > before
        } else {
            added == 0 && after >= before
        };
        out.check(refined, || {
            format!(
                "round {} added {added} rules, coverage {before} -> {after}",
                i + 1
            )
        });
    }
}

/// One traced replay of `run_round`, call for call through the public
/// functions `PrimaSystem::run_round` itself composes, against copies of
/// the system's policy and review queue.
struct Replay {
    before: f64,
    after: f64,
    raw_patterns: usize,
    useful: usize,
    enqueued: usize,
    added: usize,
    practice: usize,
    uncovered_before: usize,
    probed_after: usize,
    policy: prima_model::Policy,
}

fn replay(rec: &mut Recorder, system: &PrimaSystem, round: usize) -> Replay {
    let vocab = system.vocab();
    let mut policy = system.policy().clone();
    let mut review = system.review().clone();
    let miner = SqlMiner::default();
    rec.begin_trace();
    rec.span("core.round", |r| {
        let entries: Vec<AuditEntry> = r.span("audit.federate", |_| {
            system.federation().consolidated_entries()
        });
        let grounds: Vec<GroundRule> = r.span("audit.ground", |_| {
            entries
                .iter()
                .map(|e| e.to_ground_rule().expect("simulated entries are ground"))
                .collect()
        });
        let before = r.span("model.coverage_before", |_| {
            CoverageEngine::default().entry_coverage(&policy, &grounds, vocab)
        });
        r.span("audit.health", |_| system.federation_health());
        let practice = r.span("refine.filter", |_| {
            filter_with(&entries, &NoViolations).practice
        });
        let table = r.span("store.practice_table", |_| practice_table(&practice));
        let raw = r
            .span("mining.mine", |_| miner.mine(&table))
            .expect("the SQL miner runs on the practice table");
        let useful = r.span("refine.prune", |_| {
            prune(raw.clone(), &policy, vocab).useful
        });
        let (enqueued, added) = r.span("refine.review", |_| {
            let enqueued = review.propose(useful.clone(), round);
            review.accept_all_pending();
            (enqueued, review.apply_accepted(&mut policy))
        });
        let after = r.span("model.coverage_after", |_| {
            CoverageEngine::default().entry_coverage(&policy, &grounds, vocab)
        });
        Replay {
            before: before.ratio(),
            after: after.ratio(),
            raw_patterns: raw.len(),
            useful: useful.len(),
            enqueued,
            added,
            practice: practice.len(),
            uncovered_before: before.uncovered_indices.len(),
            probed_after: grounds.len(),
            policy,
        }
    })
}

/// The layers a replayed round is split into; their medians plus
/// `core.unattributed_ms` make up the untraced round's median.
const LAYERS: [(&str, &str); 10] = [
    ("audit.federate", "audit.federate_ms"),
    ("audit.health", "audit.health_ms"),
    ("audit.ground", "audit.ground_ms"),
    ("model.coverage_before", "model.coverage_before_ms"),
    ("model.coverage_after", "model.coverage_after_ms"),
    ("refine.filter", "refine.filter_ms"),
    ("store.practice_table", "store.practice_table_ms"),
    ("mining.mine", "mining.mine_ms"),
    ("refine.prune", "refine.prune_ms"),
    ("refine.review", "refine.review_ms"),
];

/// Traced run: each round is first replayed under spans, then run
/// untraced on the real system; the replay must reproduce the record.
pub fn traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let truth = inputs.scenario.ground_truth();
    let mut untraced = Samples::new();
    let mut practice = Samples::new();
    let mut raw_patterns = Samples::new();
    let mut precision_per_cycle = Samples::new();
    let mut rules_added = Samples::new();
    let (mut useful, mut raw_total, mut uncovered, mut probed) = (0usize, 0usize, 0usize, 0usize);
    let started = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || started.elapsed() < budget {
        let mut system = rec.span("core.setup", |_| inputs.system());
        let mut added_in_cycle = 0;
        for round in 1..=ROUNDS {
            let replayed = replay(rec, &system, round);
            let t = Instant::now();
            let record = system.run_round(ReviewMode::AutoAccept);
            untraced.push(t.elapsed().as_nanos() as f64);
            out.attempted += 1;
            let Ok(record) = record else {
                out.failed += 1;
                continue;
            };
            let same = record.entry_coverage_before.to_bits() == replayed.before.to_bits()
                && record.entry_coverage_after.to_bits() == replayed.after.to_bits()
                && record.patterns_found == replayed.raw_patterns
                && record.patterns_useful == replayed.useful
                && record.candidates_enqueued == replayed.enqueued
                && record.rules_added == replayed.added
                && record.practice_entries == replayed.practice
                && *system.policy() == replayed.policy;
            out.check(same, || {
                format!("traced replay of round {round} differs from {record:?}")
            });
            practice.push(replayed.practice as f64);
            raw_patterns.push(replayed.raw_patterns as f64);
            useful += replayed.useful;
            raw_total += replayed.raw_patterns;
            uncovered += replayed.uncovered_before;
            probed += replayed.probed_after;
            added_in_cycle += replayed.added;
        }
        rules_added.push(added_in_cycle as f64);
        precision_per_cycle.push(precision(&system, &truth));
        cycles += 1;
    }

    let mut layer_sum_ns = 0.0;
    for (span, metric) in LAYERS {
        let q = rec.durations_ns(span).median();
        layer_sum_ns += q.map_or(0.0, |q| q.value);
        out.quantile(metric, "ms", q, 1e6);
    }
    let round = untraced.median();
    if let Some(q) = round {
        out.metric(
            "core.unattributed_ms",
            "ms",
            (q.value - layer_sum_ns) / 1e6,
            q.samples,
        );
    }
    out.metric(
        "model.after_pass_useful_ratio",
        "ratio",
        uncovered as f64 / probed.max(1) as f64,
        untraced.len(),
    );
    out.quantile("refine.practice_entries", "count", practice.median(), 1.0);
    out.quantile("mining.patterns", "count", raw_patterns.median(), 1.0);
    out.metric(
        "refine.useful_ratio",
        "ratio",
        useful as f64 / raw_total.max(1) as f64,
        untraced.len(),
    );
    out.quantile("refine.rules_added", "count", rules_added.median(), 1.0);
    out.quantile(
        "mining.precision",
        "ratio",
        precision_per_cycle.median(),
        1.0,
    );
}
