//! Workload `decide`: the decision-serving path, driven open loop.
//!
//! One generator thread sends requests on a fixed schedule (see
//! [`crate::loadgen`]) through `InProcessTransport::decide_batch` to a
//! `PolicyService` with at most `nproc − 1` workers. The request mix is
//! serve-bench's: 1M Zipf(1.05) principals, op and purpose Zipf(1.8),
//! consent 90/5/4/1 including malformed tokens. Every 100k requests
//! `install_policy` publishes the next promoted rule, which invalidates
//! the whole decision cache: cache hits set the median, and the miss path
//! after each install shows in the p99.

use crate::loadgen::{self, OpenLoop};
use crate::report::{nproc, Outcome};
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::{promote, promotion_pool};
use prima_model::{Policy, Rule};
use prima_serve::{
    DecisionReply, DecisionRequest, DenyReason, InProcessTransport, PolicyService, ServeConfig,
    Verdict,
};
use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use prima_workload::{Scenario, ZipfPopulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Principal population size and skew.
const PRINCIPALS: usize = 1_000_000;
const PRINCIPAL_ZIPF: f64 = 1.05;
/// Skew of the op and purpose draws.
const CATEGORY_ZIPF: f64 = 1.8;
/// An install takes effect after every this many requests.
const INSTALL_EVERY: usize = 100_000;
/// One reply in this many is compared with `decide_uncached`.
const ORACLE_EVERY: usize = 1_000;
/// The fixed rate p50 and p99 are measured at, requests per second.
const REFERENCE_RATE: f64 = 50_000.0;
/// Share of the time budget spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.4;
/// The max-rate ladder: `LADDER_BASE · LADDER_STEP^k`, `k < LADDER_RUNGS`.
const LADDER_BASE: f64 = 50_000.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: i32 = 64;
/// A rung is sustained when its p99 and the generator's late lag stay
/// within these limits.
const P99_LIMIT_NS: f64 = 1e6;
const LAG_LIMIT_NS: u64 = 1_000_000;
/// Service start-ups timed for `setup_s`.
const SETUPS: usize = 101;

/// serve-bench's request mix over the community-hospital vocabulary.
struct Mix {
    population: ZipfPopulation,
    roles: Vec<String>,
    ops: Vec<String>,
    purposes: Vec<String>,
    op_skew: ZipfPopulation,
    purpose_skew: ZipfPopulation,
}

impl Mix {
    fn new(scenario: &Scenario) -> Self {
        let leaves = |attr: &str| -> Vec<String> {
            let t = scenario.vocab.attribute(attr).expect("scenario attribute");
            t.all_leaves()
                .iter()
                .map(|&id| t.name(id).to_string())
                .collect()
        };
        let (roles, ops, purposes) = (
            leaves(ATTR_AUTHORIZED),
            leaves(ATTR_DATA),
            leaves(ATTR_PURPOSE),
        );
        Self {
            population: ZipfPopulation::new(PRINCIPALS, PRINCIPAL_ZIPF),
            op_skew: ZipfPopulation::new(ops.len(), CATEGORY_ZIPF),
            purpose_skew: ZipfPopulation::new(purposes.len(), CATEGORY_ZIPF),
            roles,
            ops,
            purposes,
        }
    }

    fn requests(&self, rng: &mut StdRng, n: usize) -> Vec<DecisionRequest> {
        (0..n)
            .map(|_| {
                let rank = self.population.sample(rng);
                let role = &self.roles[rank % self.roles.len()];
                let op = &self.ops[self.op_skew.sample(rng)];
                let purpose = &self.purposes[self.purpose_skew.sample(rng)];
                let p: f64 = rng.gen();
                let consent = if p < 0.90 {
                    "granted"
                } else if p < 0.95 {
                    "opted-out"
                } else if p < 0.99 {
                    "unspecified"
                } else {
                    "malformed-⚠"
                };
                DecisionRequest::new(
                    &ZipfPopulation::principal_name(rank),
                    role,
                    op,
                    purpose,
                    consent,
                )
            })
            .collect()
    }
}

/// The running service and the promotion schedule it is fed.
struct Served {
    service: PolicyService,
    transport: InProcessTransport,
    policy: Policy,
    pool: Vec<Rule>,
    /// Requests sent so far, across phases (installs key on it).
    sent: usize,
    promotions: usize,
    install_ns: Samples,
    /// `SRV-011` replies so far.
    shed: u64,
    /// `SRV-012` replies so far.
    deadline_expired: u64,
}

impl Served {
    fn start(scenario: &Scenario) -> Self {
        let workers = nproc().saturating_sub(1).max(1);
        let service = PolicyService::start(
            ServeConfig::new().workers(workers),
            &scenario.policy,
            &scenario.vocab,
        );
        Self {
            transport: service.handle(),
            service,
            policy: scenario.policy.clone(),
            pool: promotion_pool(scenario),
            sent: 0,
            promotions: 0,
            install_ns: Samples::new(),
            shed: 0,
            deadline_expired: 0,
        }
    }

    /// Sends `requests` open loop at `rate`; checks every reply's status
    /// and a sample against `decide_uncached`, and installs on schedule.
    fn phase(&mut self, requests: Vec<DecisionRequest>, rate: f64, out: &mut Outcome) -> OpenLoop {
        let sampled: Vec<DecisionRequest> =
            requests.iter().step_by(ORACLE_EVERY).cloned().collect();
        let n = requests.len() as u64;
        let base = self.sent;
        let overloaded = self.shed + self.deadline_expired;
        let transport = self.transport.clone();
        let run = loadgen::run(&transport, requests, rate, |first, replies| {
            self.after_batch(base, first, replies, &sampled, out);
        });
        self.sent += n as usize;
        out.attempted += n;
        out.failed += run.errors + self.shed + self.deadline_expired - overloaded;
        run
    }

    fn after_batch(
        &mut self,
        base: usize,
        first: usize,
        replies: &[DecisionReply],
        sampled: &[DecisionRequest],
        out: &mut Outcome,
    ) {
        for (i, reply) in (first..).zip(replies) {
            match reply.verdict {
                Verdict::Deny(DenyReason::Overloaded) => self.shed += 1,
                Verdict::Deny(DenyReason::DeadlineExceeded) => self.deadline_expired += 1,
                _ => {}
            }
            if i % ORACLE_EVERY == 0 {
                // Installs happen only on this thread, between batches,
                // so the engine is still at the reply's revision.
                let engine = self.service.engine();
                let oracle = engine.decide_uncached(&sampled[i / ORACLE_EVERY]);
                out.check(
                    reply.policy_revision == engine.policy_revision()
                        && oracle.verdict == reply.verdict,
                    || format!("reply {i} {reply:?} disagrees with decide_uncached {oracle:?}"),
                );
            }
        }
        let before = (base + first) / INSTALL_EVERY;
        let after = (base + first + replies.len()) / INSTALL_EVERY;
        for _ in before..after {
            self.install();
        }
    }

    fn install(&mut self) {
        promote(&mut self.policy, &self.pool, self.promotions);
        self.promotions += 1;
        let t = Instant::now();
        let installed = self.service.install_policy(&self.policy);
        self.install_ns.push(t.elapsed().as_nanos() as f64);
        debug_assert!(installed, "every promotion changes the revision");
    }
}

fn ladder_rate(k: i32) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k)
}

/// Whether the service sustains `rate` over one install period (the
/// probe starts on a freshly invalidated cache): p99 within 1 ms, no
/// growing generator lag, nothing lost. A failing probe is retried once,
/// so one scheduler hiccup does not end the climb.
fn sustains(
    served: &mut Served,
    mix: &Mix,
    rng: &mut StdRng,
    rate: f64,
    out: &mut Outcome,
) -> bool {
    (0..2).any(|_| {
        let requests = mix.requests(rng, INSTALL_EVERY);
        let run = served.phase(requests, rate, out);
        let late_lag_ns = run.late_lag_max_ns();
        run.errors == 0
            && Samples::from(run.latency_ns)
                .percentile(99.0)
                .is_some_and(|q| q.value <= P99_LIMIT_NS)
            && late_lag_ns <= LAG_LIMIT_NS
    })
}

/// Whole install periods at the reference rate filling its share of the
/// budget: every period starts on a cold cache (the fresh service's, then
/// each install's), so every run sees the same mix of hits and misses.
fn reference_requests(mix: &Mix, rng: &mut StdRng, budget: Duration) -> Vec<DecisionRequest> {
    let periods =
        (REFERENCE_RATE * budget.as_secs_f64() * REFERENCE_SHARE) as usize / INSTALL_EVERY;
    mix.requests(rng, periods.max(1) * INSTALL_EVERY)
}

/// Untraced run: end-to-end figures.
pub fn run(seed: u64, budget: Duration, out: &mut Outcome) {
    let scenario = Scenario::community_hospital();
    let mix = Mix::new(&scenario);
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = reference_requests(&mix, &mut rng, budget);

    let mut setup = Samples::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(s) = served.take() {
            s.service.shutdown();
        }
        let t = Instant::now();
        served = Some(Served::start(&scenario));
        setup.push(t.elapsed().as_nanos() as f64);
    }
    let mut served = served.expect("SETUPS > 0");

    let reference = served.phase(requests, REFERENCE_RATE, out);
    eprintln!(
        "perfbench: decide at {REFERENCE_RATE}/s: loadgen.lag_max_ms = {}",
        reference.lag_max_ns() as f64 / 1e6
    );
    let mut latency = Samples::from(reference.latency_ns);

    // Highest sustained rung, by bisection over the ladder.
    let (mut lo, mut hi) = (-1, LADDER_RUNGS);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if sustains(&mut served, &mix, &mut rng, ladder_rate(mid), out) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Reported as 0 when even the base rung misses the limits: a slow
    // service, not a wrong one.
    let max_rate = if lo < 0 { 0.0 } else { ladder_rate(lo) };

    out.quantile("setup_s", "s", setup.median(), 1e9);
    out.quantile("p50_ms", "ms", latency.median(), 1e6);
    out.quantile("tail_ms", "ms", latency.percentile(99.0), 1e6);
    out.metric("throughput_per_s", "1/s", max_rate, 1);
    served.service.shutdown();
}

/// Traced run: per-layer figures for the transport and the engine.
pub fn traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let scenario = Scenario::community_hospital();
    let mix = Mix::new(&scenario);
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = reference_requests(&mix, &mut rng, budget);
    let replay = requests.clone();

    let mut served = rec.span("serve.setup", |_| Served::start(&scenario));
    let live = rec.span("serve.open_loop", |_| {
        served.phase(requests, REFERENCE_RATE, out)
    });
    let cache = served.service.engine().cache_stats();

    // Replay the same sequence inline on the engine, installing at the
    // same request indices, to split each batch's round trip into engine
    // time and transport time.
    let engine = std::sync::Arc::clone(served.service.engine());
    let mut engine_ns = Vec::with_capacity(replay.len());
    let mut uncached_ns = Samples::new();
    rec.span("serve.engine_replay", |_| {
        for (i, req) in replay.iter().enumerate() {
            if i > 0 && i % INSTALL_EVERY == 0 {
                served.install();
            }
            let t = Instant::now();
            std::hint::black_box(engine.decide(req));
            engine_ns.push(t.elapsed().as_nanos() as f64);
            if i % 16 == 0 {
                let t = Instant::now();
                std::hint::black_box(engine.decide_uncached(req));
                uncached_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
    });

    let mut rtt = Samples::new();
    let mut overhead = Samples::new();
    for b in &live.batches {
        let engine_sum: f64 = engine_ns[b.first..b.first + b.len].iter().sum();
        rtt.push(b.rtt_ns as f64);
        overhead.push(b.rtt_ns as f64 - engine_sum);
    }
    let mut engine_samples = Samples::from(engine_ns);
    out.quantile("serve.batch_rtt_us", "us", rtt.median(), 1e3);
    out.quantile("serve.engine_decide_ns", "ns", engine_samples.median(), 1.0);
    out.quantile("serve.uncached_decide_ns", "ns", uncached_ns.median(), 1.0);
    out.quantile("serve.transport_overhead_us", "us", overhead.median(), 1e3);
    out.quantile("serve.install_ms", "ms", served.install_ns.median(), 1e6);
    out.metric("serve.cache_hit_ratio", "ratio", cache.hit_rate(), 1);
    out.metric("serve.cache_misses", "count", cache.misses as f64, 1);
    out.metric(
        "serve.invalidations",
        "count",
        cache.invalidations as f64,
        1,
    );
    out.metric("serve.shed", "count", served.shed as f64, 1);
    out.metric(
        "serve.deadline_expired",
        "count",
        served.deadline_expired as f64,
        1,
    );
    out.metric(
        "loadgen.lag_max_ms",
        "ms",
        live.lag_max_ns() as f64 / 1e6,
        live.batches.len(),
    );
    served.service.shutdown();
}
