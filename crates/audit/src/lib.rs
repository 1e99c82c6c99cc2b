//! # prima-audit — Audit Management (Section 4.2)
//!
//! The paper fixes the audit-entry schema as
//!
//! ```text
//! {(time, t), (op, X), (user, u), (data, d), (purpose, p),
//!  (authorized, a), (status, s)}
//! ```
//!
//! where `op` is 0 (disallow) / 1 (allow) and `status` is 0
//! (exception-based access) / 1 (regular access). This crate provides:
//!
//! * [`AuditEntry`] — the typed entry, with lossless conversion to/from the
//!   relational row form the analytics queries run on, and projection to the
//!   `(data, purpose, authorized)` ground rule the formal model uses;
//! * [`AuditStore`] — a thread-safe, append-only audit trail that admits
//!   only entries projectable to a ground rule;
//! * [`federation`] — the role DB2 Information Integrator plays in the
//!   paper's first instantiation: a consolidated virtual view over many
//!   per-site audit trails, with provenance;
//! * [`classify`] — hooks for separating *violations* from *informal
//!   practice* among exception entries, which the paper flags as necessary
//!   before patterns are proposed as policy;
//! * [`export`] — JSON-lines export/import for experiment artifacts;
//! * [`source`] / [`resilience`] — the fault-tolerant side of federation:
//!   a [`LogSource`] abstraction over fallible per-site fetches, retried
//!   under a [`RetryPolicy`] behind per-source [`CircuitBreaker`]s, with
//!   malformed records parked in a [`Quarantine`] and a
//!   [`FederationHealth`] report that bounds how complete the degraded
//!   consolidated view is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod entry;
pub mod export;
pub mod federation;
pub mod health;
pub mod obs;
pub mod quarantine;
pub mod resilience;
pub mod retention;
pub mod retry;
pub mod schema;
pub mod source;
pub mod stats;
pub mod store;

pub use classify::{AccessClassifier, DenyPairClassifier, NoViolations};
pub use entry::{AccessStatus, AuditEntry, Op};
pub use federation::{AuditFederation, FederationError};
pub use health::{FederationHealth, SourceHealth, SourceStatus};
pub use obs::FederationObs;
pub use quarantine::{Quarantine, QuarantineReason, QuarantinedRecord};
pub use resilience::ResilientFederation;
pub use retention::TrainingWindow;
pub use retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use schema::audit_schema;
pub use source::{
    FaultySource, FetchResponse, LogSource, RawRecord, SourceError, SourceFaults, StoreSource,
};
pub use stats::{glass_breakers, trail_stats, TrailObserver, TrailStats};
pub use store::AuditStore;
