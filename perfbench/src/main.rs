//! PRIMA's benchmark: one command for the refinement round, streaming
//! ingestion and open-loop decision serving.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <round|ingest|decide> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced and prints the
//! end-to-end figures. With `--trace 1` the benchmark records its own
//! spans around every call it makes into a layer and prints the
//! per-layer figures; that run replays all three paths (each on its own
//! workload's inputs from the seed) so every layer is measured. The last
//! line of standard output is the result object; see README.md.

mod checks;
mod decide;
mod ingest;
mod loadgen;
mod report;
mod round;
mod spans;
mod stats;

use prima_model::{Policy, Rule};
use prima_workload::Scenario;
use report::{Context, Outcome};
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["round", "ingest", "decide"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
                workload = Some(name);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The rules promotions draw from: the scenario's ground-truth clusters,
/// the very rules the refinement loop would mine.
fn promotion_pool(scenario: &Scenario) -> Vec<Rule> {
    scenario
        .ground_truth()
        .iter()
        .map(Rule::from_ground)
        .collect()
}

/// Promotion `k`: the `k`-th rule of the pool while any is left; after
/// that the policy is re-published at a new revision, which invalidates
/// decision caches the same way a new rule does.
fn promote(policy: &mut Policy, pool: &[Rule], k: usize) {
    if !pool
        .get(k)
        .is_some_and(|rule| policy.push_unique(rule.clone()))
    {
        policy.touch();
    }
}

/// The process's peak resident set, in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <round|ingest|decide> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();
    checks::paper_examples(&mut out);

    if args.trace {
        // Each path gets a third of the budget.
        let share = budget / 3;
        let mut rec = spans::Recorder::new();
        let started = Instant::now();
        round::traced(args.seed, share, &mut rec, &mut out);
        ingest::traced(args.seed, share, &mut rec, &mut out);
        decide::traced(args.seed, share, &mut rec, &mut out);
        let wall_ns = started.elapsed().as_nanos() as f64;
        let overhead = rec.len() as f64 * spans::span_cost_ns() / wall_ns * 100.0;
        out.metric("trace.overhead_pct", "%", overhead, rec.len());
        write_spans(&args, &rec);
    } else {
        match args.workload {
            "round" => round::run(args.seed, budget, &mut out),
            "ingest" => ingest::run(args.seed, budget, &mut out),
            _ => decide::run(args.seed, budget, &mut out),
        }
        let rss = peak_rss_mb();
        out.check(rss.is_some(), || "no VmHWM in /proc/self/status".into());
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metric("success_share", "share", ok, out.attempted as usize);
        out.metric("peak_rss_mb", "MiB", rss.unwrap_or(0.0), 1);
    }
    report::print(args.workload, args.trace, &Context::probe(args.seed), &out);
}

/// Writes the traced run's spans as JSONL under `.perfbench/`.
fn write_spans(args: &Args, rec: &spans::Recorder) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            rec.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
