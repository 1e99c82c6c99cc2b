//! Workload `ingest`: the streaming path.
//!
//! A `community_hospital` trail is replayed by one thread in fixed
//! 20k-entry chunks through `StreamEngine::ingest_all`, with one
//! `snapshot()` after each chunk and, after every 10th snapshot, a
//! `refresh_policy` with the next promoted ground-truth rule. Routing,
//! block shipping, the shard caches and counters do the work; the batch
//! layers are idle. Refreshes are writes beside the snapshot reads: they
//! clear every shard cache and re-label the counters.

use crate::report::{nproc, Outcome};
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::{promote, promotion_pool};
use prima_audit::AuditEntry;
use prima_model::{
    compute_coverage, CoverageEngine, GroundRule, Policy, PolicyMatcher, Rule, StoreTag,
};
use prima_stream::{StreamConfig, StreamEngine, StreamSnapshot};
use prima_workload::{Scenario, SimConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Entries per `ingest_all` call (one snapshot follows each).
const CHUNK: usize = 20_000;
/// Distinct generated entries; longer runs replay them with time shifted
/// past the end of the previous pass.
const BASE_ENTRIES: usize = 10 * CHUNK;
/// A refresh follows every this many snapshots.
const REFRESH_EVERY: usize = 10;
/// Snapshots every run takes, so the p90 has ten samples beyond it.
const MIN_SNAPSHOTS: usize = 100;
/// Sliding-window length (one week of simulated time).
const WINDOW_SECS: i64 = 7 * 24 * 3600;

struct Inputs {
    scenario: Scenario,
    base: Vec<AuditEntry>,
    /// Ground rules of `base`, index for index.
    grounds: Vec<GroundRule>,
    /// Simulated time one pass over `base` spans.
    pass_secs: i64,
    pool: Vec<Rule>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let scenario = Scenario::community_hospital();
        let base: Vec<AuditEntry> = scenario
            .simulator()
            .generate(&SimConfig {
                seed,
                n_entries: BASE_ENTRIES,
                ..SimConfig::default()
            })
            .into_iter()
            .map(|l| l.entry)
            .collect();
        let grounds = base
            .iter()
            .map(|e| e.to_ground_rule().expect("simulated entries are ground"))
            .collect();
        let pass_secs = base.last().map_or(0, |e| e.time) - base.first().map_or(0, |e| e.time) + 1;
        let pool = promotion_pool(&scenario);
        Self {
            scenario,
            base,
            grounds,
            pass_secs,
            pool,
        }
    }

    /// Chunk `k` of the endless replay.
    fn chunk(&self, k: usize) -> Vec<AuditEntry> {
        let start = k * CHUNK;
        let pass = (start / BASE_ENTRIES) as i64;
        let offset = start % BASE_ENTRIES;
        self.base[offset..offset + CHUNK]
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.time += pass * self.pass_secs;
                e
            })
            .collect()
    }

    fn start_engine(&self) -> StreamEngine {
        let config = StreamConfig::with_shards(nproc().min(4)).window_secs(WINDOW_SECS);
        StreamEngine::start(
            config,
            PolicyMatcher::new(&self.scenario.policy, &self.scenario.vocab),
        )
    }
}

/// Runs `f` inside a span when tracing.
fn in_span<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, |_| f()),
        None => f(),
    }
}

/// What one replay measured.
struct Drive {
    /// One engine start-up per chunk, spread over the run so `setup_s`
    /// sees the same host conditions as the timed work.
    setup_ns: Samples,
    snapshot_ns: Samples,
    busy_ns: f64,
    entries: usize,
    last: StreamSnapshot,
    policy: Policy,
    /// Policies installed by refreshes, in order.
    refreshed: Vec<Policy>,
}

fn drive(
    inputs: &Inputs,
    engine: &mut StreamEngine,
    budget: Duration,
    mut rec: Option<&mut Recorder>,
    out: &mut Outcome,
) -> Drive {
    let mut policy = inputs.scenario.policy.clone();
    let mut refreshed = Vec::new();
    let mut setup_ns = Samples::new();
    let mut snapshot_ns = Samples::new();
    let mut busy_ns = 0.0;
    let mut entries = 0usize;
    let mut last = None;
    let started = Instant::now();
    let mut k = 0;
    while k < MIN_SNAPSHOTS || started.elapsed() < budget {
        let chunk = inputs.chunk(k);
        if let Some(r) = rec.as_deref_mut() {
            r.begin_trace();
        }
        let t0 = Instant::now();
        let accepted = in_span(&mut rec, "stream.ingest", || engine.ingest_all(&chunk));
        let t1 = Instant::now();
        let snap = in_span(&mut rec, "stream.snapshot", || engine.snapshot());
        let t2 = Instant::now();
        snapshot_ns.push((t2 - t1).as_nanos() as f64);
        busy_ns += (t2 - t0).as_nanos() as f64;
        entries += chunk.len();
        out.attempted += chunk.len() as u64;
        out.failed += (chunk.len() - accepted) as u64;
        out.check(
            snap.ingested == entries as u64
                && snap.processed == entries as u64
                && snap.poisoned == 0,
            || {
                format!(
                    "snapshot {k} saw {}/{} of {entries} entries",
                    snap.ingested, snap.processed
                )
            },
        );
        k += 1;
        if k % REFRESH_EVERY == 0 {
            promote(&mut policy, &inputs.pool, k / REFRESH_EVERY - 1);
            let t = Instant::now();
            in_span(&mut rec, "stream.refresh", || {
                engine.refresh_policy(&policy)
            });
            busy_ns += t.elapsed().as_nanos() as f64;
            refreshed.push(policy.clone());
        }
        last = Some(snap);
        let t = Instant::now();
        let spare = inputs.start_engine();
        setup_ns.push(t.elapsed().as_nanos() as f64);
        drop(spare);
    }
    let last = last.expect("at least one chunk is ingested");
    out.failed += last.lost;
    Drive {
        setup_ns,
        snapshot_ns,
        busy_ns,
        entries,
        last,
        policy,
        refreshed,
    }
}

/// The final snapshot must equal batch `entry_coverage` and
/// `compute_coverage` under the final policy over every ingested entry.
fn check_against_batch(out: &mut Outcome, inputs: &Inputs, engine: &mut StreamEngine, d: &Drive) {
    let snap = engine.snapshot();
    let vocab = &inputs.scenario.vocab;
    // The ingested trail is `passes` whole copies of the base trail plus
    // its first `rest` entries; coverage does not depend on time.
    let (passes, rest) = (d.entries / BASE_ENTRIES, d.entries % BASE_ENTRIES);
    let batch = CoverageEngine::default().entry_coverage(&d.policy, &inputs.grounds, vocab);
    let uncovered_in_rest = batch
        .uncovered_indices
        .iter()
        .filter(|&&i| i < rest)
        .count();
    let covered = passes * batch.covered_entries + rest - uncovered_in_rest;
    out.check(
        snap.totals.covered_entries == covered as u64
            && snap.totals.total_entries == d.entries as u64,
        || {
            format!(
                "stream totals {:?}, batch {covered}/{}",
                snap.totals, d.entries
            )
        },
    );
    let seen = if passes > 0 { BASE_ENTRIES } else { rest };
    let distinct: BTreeSet<GroundRule> = inputs.grounds[..seen].iter().cloned().collect();
    let trail = Policy::from_ground_rules(StoreTag::AuditLog, distinct);
    let batch_set = compute_coverage(&d.policy, &trail, vocab);
    out.check(
        batch_set.as_ref().is_ok_and(|b| *b == snap.coverage),
        || "stream coverage differs from batch compute_coverage".into(),
    );
}

/// Untraced run: end-to-end figures.
pub fn run(seed: u64, budget: Duration, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let t = Instant::now();
    let mut engine = inputs.start_engine();
    let first_setup_ns = t.elapsed().as_nanos() as f64;
    let mut d = drive(&inputs, &mut engine, budget, None, out);
    check_against_batch(out, &inputs, &mut engine, &d);
    d.setup_ns.push(first_setup_ns);
    out.quantile("setup_s", "s", d.setup_ns.median(), 1e9);
    out.quantile("p50_ms", "ms", d.snapshot_ns.median(), 1e6);
    out.quantile("tail_ms", "ms", d.snapshot_ns.percentile(90.0), 1e6);
    out.metric(
        "throughput_per_s",
        "1/s",
        d.entries as f64 / (d.busy_ns / 1e9),
        d.snapshot_ns.len(),
    );
    engine.shutdown();
}

/// Traced run: per-layer figures for the stream and the matcher.
pub fn traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let mut engine = rec.span("stream.setup", |_| inputs.start_engine());
    let d = drive(&inputs, &mut engine, budget, Some(rec), out);
    check_against_batch(out, &inputs, &mut engine, &d);

    // The matcher every refresh rebuilds, probed over the trail's
    // distinct ground rules.
    let distinct: Vec<GroundRule> = inputs
        .grounds
        .iter()
        .cloned()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut probe_ns = Samples::new();
    for policy in &d.refreshed {
        let matcher = rec.span("model.matcher_build", |_| {
            PolicyMatcher::new(policy, &inputs.scenario.vocab)
        });
        let t = Instant::now();
        let covered = distinct.iter().filter(|g| matcher.covers(g)).count();
        probe_ns.push(t.elapsed().as_nanos() as f64 / distinct.len() as f64);
        std::hint::black_box(covered);
    }

    let ingest = rec.durations_ns("stream.ingest").median();
    out.quantile("stream.ingest_ms", "ms", ingest, 1e6);
    out.quantile(
        "stream.refresh_ms",
        "ms",
        rec.durations_ns("stream.refresh").median(),
        1e6,
    );
    let cache = d.last.cache;
    out.metric("stream.cache_hit_ratio", "ratio", cache.hit_rate(), 1);
    out.metric("stream.cache_misses", "count", cache.misses as f64, 1);
    out.metric("stream.poisoned", "count", d.last.poisoned as f64, 1);
    out.metric("stream.lost", "count", d.last.lost as f64, 1);
    out.quantile(
        "model.matcher_build_ms",
        "ms",
        rec.durations_ns("model.matcher_build").median(),
        1e6,
    );
    out.quantile("model.matcher_probe_ns", "ns", probe_ns.median(), 1.0);
    engine.shutdown();
}
