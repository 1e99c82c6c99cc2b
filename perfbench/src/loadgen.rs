//! The open-loop request generator.
//!
//! Request `i` is due at `i / rate` seconds after the start, whether or
//! not the service has kept up. One generator thread sends, per tick, one
//! `decide_batch` call holding every request that has come due, and
//! times each request **from when it was due**: a stall delays the
//! requests that came due during it, and their latency includes the wait.
//! The generator's lag (how late it sends the oldest due request) is
//! recorded per batch.

use prima_serve::{DecisionReply, DecisionRequest, Transport};
use std::time::{Duration, Instant};

/// Waits longer than this sleep instead of spinning.
const SPIN_LIMIT: Duration = Duration::from_micros(200);

/// One batch the generator sent.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Index of the batch's first request.
    pub first: usize,
    /// Requests in the batch.
    pub len: usize,
    /// Wall time of the `decide_batch` call.
    pub rtt_ns: u64,
    /// How late the batch's oldest request was sent.
    pub lag_ns: u64,
}

/// What an open-loop run observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per request, in request order: nanoseconds from its due time to
    /// its reply (or to the error that ended its batch).
    pub latency_ns: Vec<f64>,
    /// Every batch, in send order.
    pub batches: Vec<Batch>,
    /// Requests whose batch returned an error or a short reply.
    pub errors: u64,
}

impl OpenLoop {
    /// The generator's worst lag, in nanoseconds.
    pub fn lag_max_ns(&self) -> u64 {
        self.batches.iter().map(|b| b.lag_ns).max().unwrap_or(0)
    }

    /// The worst lag over the second half of the run: small when the
    /// generator keeps up, large when its backlog grows.
    pub fn late_lag_max_ns(&self) -> u64 {
        let half = self.latency_ns.len() / 2;
        self.batches
            .iter()
            .filter(|b| b.first >= half)
            .map(|b| b.lag_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Sends `requests` at `rate` per second through `transport`. After each
/// batch, `after_batch(first, replies)` runs on the generator thread
/// (its time is charged to the requests due meanwhile).
pub fn run<T: Transport + ?Sized>(
    transport: &T,
    requests: Vec<DecisionRequest>,
    rate: f64,
    mut after_batch: impl FnMut(usize, &[DecisionReply]),
) -> OpenLoop {
    let n = requests.len();
    let due_ns = |i: usize| (i as f64 * 1e9 / rate) as u64;
    let mut pending = requests.into_iter();
    let mut result = OpenLoop {
        latency_ns: Vec::with_capacity(n),
        ..OpenLoop::default()
    };
    let start = Instant::now();
    let mut sent = 0;
    while sent < n {
        let now = start.elapsed().as_nanos() as u64;
        let due = ((now as f64 * rate / 1e9) as usize + 1).min(n);
        if due <= sent {
            let wait = Duration::from_nanos(due_ns(sent).saturating_sub(now));
            if wait > SPIN_LIMIT {
                std::thread::sleep(wait - SPIN_LIMIT / 2);
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let batch: Vec<DecisionRequest> = pending.by_ref().take(due - sent).collect();
        let sent_at = Instant::now();
        let reply = transport.decide_batch(batch);
        let rtt_ns = sent_at.elapsed().as_nanos() as u64;
        let done = start.elapsed().as_nanos() as u64;
        for i in sent..due {
            result
                .latency_ns
                .push(done.saturating_sub(due_ns(i)) as f64);
        }
        result.batches.push(Batch {
            first: sent,
            len: due - sent,
            rtt_ns,
            lag_ns: now.saturating_sub(due_ns(sent)),
        });
        match reply {
            Ok(replies) if replies.len() == due - sent => after_batch(sent, &replies),
            _ => result.errors += (due - sent) as u64,
        }
        sent = due;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_serve::{RewriteReply, RewriteRequest, ServeError, Verdict};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Answers instantly, except that its first batch stalls.
    struct StallOnce {
        stall: Duration,
        stalled: AtomicBool,
    }

    impl Transport for StallOnce {
        fn decide(&self, _req: DecisionRequest) -> Result<DecisionReply, ServeError> {
            if !self.stalled.swap(true, Ordering::SeqCst) {
                std::thread::sleep(self.stall);
            }
            Ok(DecisionReply {
                verdict: Verdict::Allow,
                rewritten_query: None,
                policy_revision: 0,
                cached: false,
            })
        }

        fn rewrite(&self, _req: RewriteRequest) -> Result<RewriteReply, ServeError> {
            Err(ServeError::Closed)
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_during_it() {
        const RATE: f64 = 20_000.0;
        let stall = Duration::from_millis(30);
        let transport = StallOnce {
            stall,
            stalled: AtomicBool::new(false),
        };
        let requests: Vec<DecisionRequest> = (0..2_000)
            .map(|i| {
                DecisionRequest::new(
                    &format!("p{i}"),
                    "nurse",
                    "referral",
                    "treatment",
                    "granted",
                )
            })
            .collect();
        let mut answered = 0;
        let run = run(&transport, requests, RATE, |_, replies| {
            answered += replies.len()
        });
        assert_eq!(answered, 2_000, "every request is answered");
        assert_eq!(run.errors, 0);
        assert_eq!(run.latency_ns.len(), 2_000);

        // Request 0 rode the stalled batch. Every request that came due
        // before the stall ended waited for it: its latency runs from its
        // own due time to a reply sent after the stall.
        let stall_ns = stall.as_nanos() as f64;
        let due_during_stall = (stall.as_secs_f64() * RATE) as usize;
        assert!(due_during_stall > 100);
        for i in 0..due_during_stall {
            let due = i as f64 * 1e9 / RATE;
            assert!(
                run.latency_ns[i] >= stall_ns - due,
                "request {i} due at {due} ns answered after {} ns",
                run.latency_ns[i]
            );
        }
        // The batch after the stall went out at least `stall` after the
        // second request came due.
        let lag_max_ms = run.lag_max_ns() as f64 / 1e6;
        assert!(
            lag_max_ms >= (stall_ns - 1e9 / RATE) / 1e6,
            "lag_max_ms = {lag_max_ms}"
        );
    }
}
