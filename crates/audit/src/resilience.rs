//! Fault-tolerant federation: degraded consolidated views with explicit
//! completeness.
//!
//! [`crate::AuditFederation`] assumes every source is an in-process
//! store that is always reachable and well-formed. This module drops
//! that assumption: a [`ResilientFederation`] consolidates
//! [`LogSource`]s through a [`RetryPolicy`] and per-source
//! [`CircuitBreaker`], parks malformed records in a [`Quarantine`]
//! instead of aborting, keeps each source's *last good fetch* as a stale
//! cache when the site is down, and reports a [`FederationHealth`] from
//! which every coverage number over the degraded view gets a
//! [`prima_model::CompletenessBound`].
//!
//! The consolidation loop never blocks the pipeline on a flaky site:
//! a source that exhausts its retry budget simply contributes its stale
//! cache this round and is retried (or circuit-broken) the next.

use crate::entry::AuditEntry;
use crate::federation::FederationError;
use crate::health::{FederationHealth, SourceHealth, SourceStatus};
use crate::obs::FederationObs;
use crate::quarantine::{Quarantine, QuarantineReason};
use crate::retry::{BreakerConfig, CircuitBreaker, RetryPolicy};
use crate::source::{LogSource, RawRecord, SourceError};
use prima_model::{GroundRule, Policy, StoreTag};
use std::time::{Duration, Instant};

/// One registered source plus its degraded-mode state.
#[derive(Debug)]
struct SourceSlot {
    source: Box<dyn LogSource>,
    breaker: CircuitBreaker,
    /// Last good fetch (well-formed entries only); served while the
    /// source is unreachable.
    cache: Vec<AuditEntry>,
    /// Latest advertised entry count (fetch response, or manifest hint
    /// when unreachable).
    expected: usize,
    /// Records quarantined out of the latest successful fetch.
    quarantined: usize,
    status: SourceStatus,
    attempts: u32,
}

/// A consolidated view over fallible [`LogSource`]s.
#[derive(Debug)]
pub struct ResilientFederation {
    slots: Vec<SourceSlot>,
    retry: RetryPolicy,
    breaker_config: BreakerConfig,
    quarantine: Quarantine,
    round: u64,
    obs: FederationObs,
}

impl Default for ResilientFederation {
    fn default() -> Self {
        Self::new(RetryPolicy::default(), BreakerConfig::default())
    }
}

impl ResilientFederation {
    /// An empty federation with the given fault-handling knobs.
    pub fn new(retry: RetryPolicy, breaker_config: BreakerConfig) -> Self {
        Self {
            slots: Vec::new(),
            retry,
            breaker_config,
            quarantine: Quarantine::new(),
            round: 0,
            obs: FederationObs::disabled(),
        }
    }

    /// Routes retry/breaker/quarantine accounting and `federation.sync`
    /// spans into `obs` (see [`crate::obs`] for the metric catalog).
    pub fn with_observability(mut self, obs: FederationObs) -> Self {
        self.obs = obs;
        self
    }

    /// Registers a source. Names are the dedup key: a second source
    /// with the name of an existing one is rejected (same hazard as
    /// [`crate::AuditFederation::register`] — silent double-counted
    /// provenance).
    pub fn attach(&mut self, source: Box<dyn LogSource>) -> Result<(), FederationError> {
        let name = source.name().to_string();
        if self.slots.iter().any(|s| s.source.name() == name) {
            return Err(FederationError::DuplicateSource { name });
        }
        let expected = source.expected_len().unwrap_or(0);
        self.slots.push(SourceSlot {
            source,
            breaker: CircuitBreaker::new(self.breaker_config),
            cache: Vec::new(),
            expected,
            quarantined: 0,
            status: SourceStatus::Unavailable,
            attempts: 0,
        });
        Ok(())
    }

    /// Registered source count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no source is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Completed consolidation rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The quarantine table.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Runs one consolidation round: every source whose breaker allows
    /// it is fetched under the retry policy; failures fall back to the
    /// stale cache. Returns the round's health report.
    pub fn sync(&mut self) -> FederationHealth {
        let started = Instant::now();
        self.round += 1;
        let round = self.round;
        let mut span = self
            .obs
            .tracer()
            .span("federation.sync")
            .with_field("round", round)
            .with_field("sources", self.slots.len());
        for slot in &mut self.slots {
            let name = slot.source.name().to_string();
            let state_before = slot.breaker.state();
            if !slot.breaker.allows(round) {
                slot.status = SourceStatus::CircuitOpen;
                slot.attempts = 0;
                if let Some(hint) = slot.source.expected_len() {
                    slot.expected = slot.expected.max(hint);
                }
                self.obs.fetch_outcome(&name, "skipped");
                continue;
            }
            let mut fetch_span = self.obs.fetch_span(&name);
            let (result, attempts) = fetch_with_retries(&mut *slot.source, &self.retry, &name);
            fetch_span.field("attempts", attempts);
            slot.attempts = attempts;
            self.obs.retry_attempts(&name, attempts);
            match result {
                Ok(records) => {
                    slot.breaker.record_success();
                    let parked_before = self.quarantine.len();
                    let (entries, quarantined) =
                        consolidate(&mut self.quarantine, &name, round, records.0);
                    for parked in &self.quarantine.records()[parked_before..] {
                        self.obs.quarantined(&name, parked.reason);
                    }
                    slot.expected = records.1;
                    slot.quarantined = quarantined;
                    slot.cache = entries;
                    slot.status = if slot.cache.len() == slot.expected {
                        SourceStatus::Healthy
                    } else {
                        SourceStatus::Degraded
                    };
                    self.obs.fetch_outcome(&name, "ok");
                }
                Err(_) => {
                    slot.breaker.record_failure(round);
                    if let Some(hint) = slot.source.expected_len() {
                        slot.expected = slot.expected.max(hint);
                    }
                    slot.status = SourceStatus::Unavailable;
                    self.obs.fetch_outcome(&name, "error");
                }
            }
            fetch_span.field("status", format!("{:?}", slot.status));
            self.obs
                .breaker_transition(&name, state_before, slot.breaker.state());
        }
        let health = self.health();
        span.field("completeness", health.completeness());
        self.obs.sync_complete(
            started.elapsed(),
            health.completeness(),
            self.quarantine.len(),
        );
        health
    }

    /// The current health report (per-source status, fetched vs.
    /// expected, quarantine counts, breaker states).
    pub fn health(&self) -> FederationHealth {
        FederationHealth {
            round: self.round,
            sources: self
                .slots
                .iter()
                .map(|slot| SourceHealth {
                    name: slot.source.name().to_string(),
                    status: slot.status,
                    fetched: slot.cache.len(),
                    expected: slot.expected.max(slot.cache.len()),
                    quarantined: slot.quarantined,
                    attempts: slot.attempts,
                    breaker: slot.breaker.state(),
                })
                .collect(),
        }
    }

    /// The degraded consolidated view: every source's latest good
    /// entries, merged and sorted by timestamp (stable: ties keep
    /// registration order, matching
    /// [`crate::AuditFederation::consolidated_entries`]).
    pub fn consolidated_entries(&self) -> Vec<AuditEntry> {
        let mut out: Vec<AuditEntry> = self
            .slots
            .iter()
            .flat_map(|s| s.cache.iter().cloned())
            .collect();
        out.sort_by_key(|e| e.time);
        out
    }

    /// One ground rule per consolidated entry, in timestamp order.
    pub fn ground_rules(&self) -> Vec<GroundRule> {
        self.consolidated_entries()
            .iter()
            .map(|e| {
                e.to_ground_rule()
                    .expect("consolidation quarantines unprojectable entries")
            })
            .collect()
    }

    /// The degraded view as the audit-log policy `P_AL`.
    pub fn to_policy(&self) -> Policy {
        Policy::from_ground_rules(StoreTag::AuditLog, self.ground_rules())
    }
}

/// Runs the retry loop for one source in one round. Returns the parsed
/// `(records, expected)` on success and the attempt count either way.
#[allow(clippy::type_complexity)]
fn fetch_with_retries(
    source: &mut dyn LogSource,
    retry: &RetryPolicy,
    name: &str,
) -> (Result<(Vec<RawRecord>, usize), SourceError>, u32) {
    let mut attempts = 0u32;
    let mut spent = Duration::ZERO;
    loop {
        attempts += 1;
        let outcome = match source.fetch() {
            Ok(resp) if resp.latency > retry.attempt_timeout => {
                // The response exists but arrived past the per-attempt
                // budget: we waited out the timeout, then gave up on it.
                spent += retry.attempt_timeout;
                Err(SourceError::Timeout {
                    source: name.to_string(),
                    latency: resp.latency,
                })
            }
            Ok(resp) => {
                spent += resp.latency;
                Ok(resp)
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => return (Ok((resp.records, resp.expected)), attempts),
            Err(err) => {
                if attempts >= retry.max_attempts {
                    return (Err(err), attempts);
                }
                spent += retry.backoff_before_retry(name, attempts - 1);
                if spent > retry.deadline {
                    return (
                        Err(SourceError::DeadlineExceeded {
                            source: name.to_string(),
                            attempts,
                        }),
                        attempts,
                    );
                }
            }
        }
    }
}

/// Splits fetched records into consolidated entries and quarantined
/// ones. Entries that cannot project to a ground rule are quarantined
/// too — downstream coverage and mining assume projectability.
fn consolidate(
    quarantine: &mut Quarantine,
    name: &str,
    round: u64,
    records: Vec<RawRecord>,
) -> (Vec<AuditEntry>, usize) {
    let mut entries = Vec::with_capacity(records.len());
    let mut quarantined = 0usize;
    for record in records {
        match record {
            RawRecord::Entry(e) => {
                if e.is_groundable() {
                    entries.push(e);
                } else {
                    quarantine.park(name, round, e.to_string(), QuarantineReason::EmptyAttribute);
                    quarantined += 1;
                }
            }
            RawRecord::Corrupt { raw, reason } => {
                quarantine.park(name, round, raw, reason);
                quarantined += 1;
            }
        }
    }
    (entries, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::BreakerState;
    use crate::source::{FaultySource, FetchResponse, SourceFaults, StoreSource};
    use crate::store::AuditStore;

    fn site(name: &str, times: &[i64]) -> AuditStore {
        let s = AuditStore::new(name);
        for &t in times {
            s.append(&AuditEntry::exception(
                t,
                "u",
                "referral",
                "registration",
                "nurse",
            ))
            .unwrap();
        }
        s
    }

    fn fed() -> ResilientFederation {
        ResilientFederation::new(
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            BreakerConfig {
                failure_threshold: 2,
                cooldown_rounds: 2,
            },
        )
    }

    #[test]
    fn healthy_sources_consolidate_exactly() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[3, 1]))))
            .unwrap();
        f.attach(Box::new(StoreSource::new(site("lab", &[2]))))
            .unwrap();
        let h = f.sync();
        assert!(h.all_healthy());
        assert_eq!(h.missing_entries(), 0);
        let times: Vec<i64> = f.consolidated_entries().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1, 2, 3]);
        assert!(h.bound_for(2, 3).is_exact());
    }

    #[test]
    fn duplicate_source_names_are_rejected() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[1]))))
            .unwrap();
        let err = f
            .attach(Box::new(StoreSource::new(site("icu", &[2]))))
            .unwrap_err();
        assert!(matches!(err, FederationError::DuplicateSource { ref name } if name == "icu"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unavailable_source_counts_as_missing_via_manifest_hint() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[1, 2]))))
            .unwrap();
        f.attach(Box::new(FaultySource::new(
            site("ward", &[5, 6, 7]),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        let h = f.sync();
        assert!(!h.all_healthy());
        assert_eq!(h.observed_entries(), 2);
        assert_eq!(h.missing_entries(), 3, "manifest hint counts the dark site");
        assert_eq!(h.source("ward").unwrap().status, SourceStatus::Unavailable);
        assert_eq!(h.source("ward").unwrap().attempts, 2, "retried once");
        // Coverage over the degraded view gets an honest interval.
        let b = h.bound_for(1, 2);
        assert!((b.lower - 0.2).abs() < 1e-12);
        assert!((b.upper - 0.8).abs() < 1e-12);
    }

    #[test]
    fn intermittent_source_converges_across_rounds() {
        let mut f = fed();
        // 2 attempts per round: fails all of round 1, succeeds in round 2.
        f.attach(Box::new(FaultySource::new(
            site("flaky", &[1, 2]),
            SourceFaults::none().fail_first_attempts(3),
        )))
        .unwrap();
        let h1 = f.sync();
        assert_eq!(
            h1.source("flaky").unwrap().status,
            SourceStatus::Unavailable
        );
        assert_eq!(h1.missing_entries(), 2);
        let h2 = f.sync();
        assert_eq!(h2.source("flaky").unwrap().status, SourceStatus::Healthy);
        assert_eq!(h2.missing_entries(), 0);
        assert_eq!(f.consolidated_entries().len(), 2);
    }

    #[test]
    fn stale_cache_serves_while_site_is_down() {
        let store = site("ward", &[1, 2]);
        let mut f = fed();
        f.attach(Box::new(FaultySource::new(
            store.clone(),
            // Healthy on round 1, down from round 2 on: 0 failed
            // attempts first, then fail the next 100.
            SourceFaults::none(),
        )))
        .unwrap();
        f.sync();
        assert_eq!(f.consolidated_entries().len(), 2);
        // The site grows an entry, then goes dark: swap in a down script.
        // (Simplest deterministic way to model "was up, now down".)
        store
            .append(&AuditEntry::regular(
                9,
                "u",
                "referral",
                "treatment",
                "nurse",
            ))
            .unwrap();
        let mut f2 = fed();
        f2.attach(Box::new(FaultySource::new(
            store.clone(),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        let h = f2.sync();
        // Nothing ever fetched here, but the hint still exposes 3 missing.
        assert_eq!(h.missing_entries(), 3);
        assert!(f2.consolidated_entries().is_empty());
    }

    #[test]
    fn slow_source_times_out_and_falls_back() {
        let mut f = ResilientFederation::new(
            RetryPolicy {
                max_attempts: 2,
                attempt_timeout: Duration::from_millis(10),
                ..RetryPolicy::default()
            },
            BreakerConfig::default(),
        );
        f.attach(Box::new(FaultySource::new(
            site("molasses", &[1]),
            SourceFaults::none().latency(Duration::from_millis(50)),
        )))
        .unwrap();
        let h = f.sync();
        assert_eq!(
            h.source("molasses").unwrap().status,
            SourceStatus::Unavailable
        );
        assert_eq!(h.missing_entries(), 1);
    }

    #[test]
    fn breaker_opens_after_repeated_failures_then_probes() {
        let mut f = fed(); // threshold 2, cooldown 2
        f.attach(Box::new(FaultySource::new(
            site("down", &[1]),
            // Down for rounds 1-2 (2 attempts each), back from round 3 —
            // but by then the breaker is open.
            SourceFaults::none().fail_first_attempts(4),
        )))
        .unwrap();
        f.sync();
        let h2 = f.sync();
        assert_eq!(h2.source("down").unwrap().breaker, BreakerState::Open);
        // Round 3: still cooling down, no attempt made.
        let h3 = f.sync();
        assert_eq!(h3.source("down").unwrap().status, SourceStatus::CircuitOpen);
        assert_eq!(h3.source("down").unwrap().attempts, 0);
        // Round 4: half-open probe succeeds and closes the breaker.
        let h4 = f.sync();
        assert_eq!(h4.source("down").unwrap().status, SourceStatus::Healthy);
        assert_eq!(h4.source("down").unwrap().breaker, BreakerState::Closed);
        assert_eq!(f.consolidated_entries().len(), 1);
    }

    #[test]
    fn corrupt_records_are_quarantined_not_fatal() {
        let mut f = fed();
        f.attach(Box::new(FaultySource::new(
            site("noisy", &[1, 2, 3, 4]),
            SourceFaults::none().corrupt_every(2),
        )))
        .unwrap();
        let h = f.sync();
        let s = h.source("noisy").unwrap();
        assert_eq!(s.status, SourceStatus::Degraded);
        assert_eq!(s.fetched, 2);
        assert_eq!(s.expected, 4);
        assert_eq!(s.quarantined, 2);
        assert_eq!(f.quarantine().for_source("noisy"), 2);
        // Quarantined records are excluded from the consolidated view
        // (the coverage denominator) but still count as missing.
        assert_eq!(f.consolidated_entries().len(), 2);
        assert_eq!(f.ground_rules().len(), 2);
        assert_eq!(h.missing_entries(), 2);
    }

    #[test]
    fn unprojectable_entries_are_quarantined_with_reason() {
        // Stores refuse ungroundable entries, but a remote site's wire
        // records arrive unchecked.
        #[derive(Debug)]
        struct Wire(Vec<AuditEntry>);
        impl LogSource for Wire {
            fn name(&self) -> &str {
                "blank"
            }
            fn fetch(&mut self) -> Result<FetchResponse, SourceError> {
                Ok(FetchResponse {
                    records: self.0.iter().cloned().map(RawRecord::Entry).collect(),
                    expected: self.0.len(),
                    latency: Duration::ZERO,
                })
            }
        }
        let mut f = fed();
        f.attach(Box::new(Wire(vec![
            AuditEntry::regular(1, "u", "", "treatment", "nurse"),
            AuditEntry::regular(2, "u", "referral", "treatment", "nurse"),
        ])))
        .unwrap();
        let h = f.sync();
        assert_eq!(h.source("blank").unwrap().fetched, 1);
        assert_eq!(h.source("blank").unwrap().quarantined, 1);
        assert_eq!(
            f.quarantine().records()[0].reason,
            QuarantineReason::EmptyAttribute
        );
        assert_eq!(
            f.ground_rules().len(),
            1,
            "coverage denominator excludes it"
        );
    }

    #[test]
    fn instrumented_sync_books_retries_breakers_and_quarantine() {
        let registry = prima_obs::MetricsRegistry::new();
        let tracer = prima_obs::Tracer::new();
        let mut f = fed().with_observability(FederationObs::over(registry.clone(), tracer.clone()));
        f.attach(Box::new(FaultySource::new(
            site("noisy", &[1, 2, 3, 4]),
            SourceFaults::none().corrupt_every(2),
        )))
        .unwrap();
        f.attach(Box::new(FaultySource::new(
            site("down", &[9]),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        // Rounds 1-2: "down" burns 2 attempts each and opens the breaker
        // (threshold 2); round 3 is skipped under cooldown.
        f.sync();
        f.sync();
        let h3 = f.sync();
        assert_eq!(h3.source("down").unwrap().status, SourceStatus::CircuitOpen);

        let count =
            |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, "", labels).get();
        assert_eq!(
            count("prima_audit_retry_attempts_total", &[("source", "noisy")]),
            3,
            "one clean attempt per round"
        );
        assert_eq!(
            count("prima_audit_retry_attempts_total", &[("source", "down")]),
            4,
            "two attempts in each of rounds 1-2, none under cooldown"
        );
        assert_eq!(
            count(
                "prima_audit_fetch_total",
                &[("source", "down"), ("outcome", "error")]
            ),
            2
        );
        assert_eq!(
            count(
                "prima_audit_fetch_total",
                &[("source", "down"), ("outcome", "skipped")]
            ),
            1
        );
        assert_eq!(
            count(
                "prima_audit_breaker_transitions_total",
                &[("source", "down"), ("to", "open")]
            ),
            1
        );
        assert_eq!(
            count(
                "prima_audit_quarantined_total",
                &[("source", "noisy"), ("reason", "malformed-record")]
            ),
            6,
            "2 corrupt records per round, re-fetched each of 3 rounds"
        );
        assert_eq!(count("prima_audit_sync_rounds_total", &[]), 3);
        let latencies = registry.histograms("prima_audit_sync_seconds");
        assert_eq!(latencies.len(), 1);
        assert_eq!(latencies[0].1.count(), 3);

        let spans = tracer.drain();
        let syncs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "federation.sync")
            .collect();
        let fetches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "federation.fetch")
            .collect();
        assert_eq!(syncs.len(), 3);
        assert_eq!(
            fetches.len(),
            5,
            "noisy 3x, down 2x (cooldown skips the probe)"
        );
        assert!(
            fetches
                .iter()
                .all(|s| syncs.iter().any(|p| p.id == s.parent)),
            "fetch spans parent to their sync round"
        );
    }

    #[test]
    fn empty_federation_is_well_behaved() {
        let mut f = ResilientFederation::default();
        let h = f.sync();
        assert!(h.all_healthy());
        assert_eq!(h.completeness(), 1.0);
        assert!(f.consolidated_entries().is_empty());
        assert!(f.is_empty());
    }
}
