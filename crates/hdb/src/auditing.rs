//! Compliance Auditing: every enforcement decision lands in the audit
//! trail.
//!
//! The paper lists the requirements this component must meet (Section 4.2):
//! minimal impact on the clinical system (appends are batched, one lock
//! acquisition per request), storage efficiency (the seven-attribute schema,
//! no payload data), and capturing the contextual information refinement
//! needs (purpose, role, and the regular/exception status bit).

use crate::error::HdbError;
use prima_audit::{AuditEntry, AuditStore};

/// What the stakeholders chose to make auditable (the Control Center's
/// "specify what needs to be auditable").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditScope {
    /// Record every access decision (default; richest refinement input).
    #[default]
    All,
    /// Record only exception-based accesses and denials — cheaper, and
    /// still sufficient for the Filter → mine → prune pipeline, but entry-
    /// weighted coverage can no longer be measured.
    ExceptionsAndDenials,
}

/// The Compliance Auditing component.
#[derive(Debug, Clone)]
pub struct ComplianceAuditing {
    store: AuditStore,
    scope: AuditScope,
}

impl ComplianceAuditing {
    /// Wraps an audit store with the default ([`AuditScope::All`]) scope.
    pub fn new(store: AuditStore) -> Self {
        Self {
            store,
            scope: AuditScope::All,
        }
    }

    /// Sets the audit scope.
    pub fn with_scope(mut self, scope: AuditScope) -> Self {
        self.scope = scope;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &AuditStore {
        &self.store
    }

    /// The configured scope.
    pub fn scope(&self) -> AuditScope {
        self.scope
    }

    /// Records the entries produced by one enforced access, honouring the
    /// scope. Returns how many were written.
    pub fn log(&self, entries: &[AuditEntry]) -> Result<usize, HdbError> {
        let selected: Vec<&AuditEntry> = entries
            .iter()
            .filter(|e| match self.scope {
                AuditScope::All => true,
                AuditScope::ExceptionsAndDenials => {
                    e.is_exception() || e.op == prima_audit::Op::Disallow
                }
            })
            .collect();
        self.store
            .append_all(selected.iter().copied())
            .map_err(|e| HdbError::Store(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_audit::{AccessStatus, Op};

    fn entries() -> Vec<AuditEntry> {
        vec![
            AuditEntry::regular(1, "tim", "referral", "treatment", "nurse"),
            AuditEntry::exception(2, "mark", "referral", "registration", "nurse"),
            AuditEntry {
                time: 3,
                op: Op::Disallow,
                user: "bill".into(),
                data: "psychiatry".into(),
                purpose: "billing".into(),
                authorized: "clerk".into(),
                status: AccessStatus::Regular,
            },
        ]
    }

    #[test]
    fn scope_all_logs_everything() {
        let ca = ComplianceAuditing::new(AuditStore::new("log"));
        assert_eq!(ca.log(&entries()).unwrap(), 3);
        assert_eq!(ca.store().len(), 3);
        assert_eq!(ca.scope(), AuditScope::All);
    }

    #[test]
    fn exception_scope_drops_regular_allows() {
        let ca = ComplianceAuditing::new(AuditStore::new("log"))
            .with_scope(AuditScope::ExceptionsAndDenials);
        assert_eq!(ca.log(&entries()).unwrap(), 2);
        let kept = ca.store().entries();
        assert!(kept
            .iter()
            .all(|e| e.is_exception() || e.op == Op::Disallow));
    }
}
