//! What one run measured, and how it is printed.
//!
//! Standard output carries one `# metric` line per figure (with the
//! sample count it rests on), one `# context` line (host `nproc`, seed,
//! commit, build profile) and, as the very last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}` read by tools.

use crate::stats::Quantile;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value rests on (1 for a single count).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (rounds, ingested entries and snapshots,
    /// decision requests, correctness checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Reported figures, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one correctness check; a failed one is described on
    /// standard error and counted against the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Adds a figure.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Adds a percentile, converting nanosecond samples to `unit` by
    /// dividing by `scale`; a missing percentile is reported as 0 over 0
    /// samples.
    pub fn quantile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        q: Option<Quantile>,
        scale: f64,
    ) {
        let q = q.unwrap_or(Quantile {
            value: 0.0,
            samples: 0,
        });
        self.metric(name, unit, q.value / scale, q.samples);
    }
}

/// Host and build facts recorded beside every result.
pub struct Context {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
    /// `git rev-parse HEAD` of the benchmarked tree, when it is a git
    /// checkout.
    pub commit: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Context {
    /// Probes the host and build.
    pub fn probe(seed: u64) -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            seed,
            commit,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders an `f64` for JSON: every digit `Display` gives (the shortest
/// text that parses back to the same value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the run: metric and context lines, then the result line last.
pub fn print(workload: &str, trace: bool, ctx: &Context, out: &Outcome) {
    for m in &out.metrics {
        println!(
            "# metric {workload} {} = {} {} (samples: {})",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "# context {{\"workload\":\"{workload}\",\"trace\":{},\"nproc\":{},\"seed\":{},\"commit\":\"{}\",\"profile\":\"{}\"}}",
        u8::from(trace),
        ctx.nproc,
        ctx.seed,
        ctx.commit,
        ctx.profile
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}
