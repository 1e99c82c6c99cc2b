//! The append-only audit store.

use crate::entry::AuditEntry;
use parking_lot::RwLock;
use prima_model::{GroundRule, ModelError, Policy, StoreTag};
use std::mem::size_of;
use std::sync::Arc;

/// A thread-safe, append-only audit trail (one per site/log source).
///
/// HDB Compliance Auditing appends while Policy Refinement reads, so the
/// entries sit behind a `parking_lot::RwLock`. Reads hand out materialized
/// snapshots so analysis runs on a consistent view without holding the
/// lock.
///
/// Every stored entry is groundable: appends reject an entry whose
/// `data`, `purpose` or `authorized` is empty after normalization, so
/// [`AuditEntry::to_ground_rule`] succeeds on everything a store returns.
#[derive(Debug, Clone)]
pub struct AuditStore {
    name: String,
    entries: Arc<RwLock<Vec<AuditEntry>>>,
}

impl AuditStore {
    /// Creates an empty store; `name` identifies the log source (e.g. a
    /// department system).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            entries: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// The log source's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one entry.
    ///
    /// # Errors
    /// [`ModelError::EmptyTerm`] if the entry cannot be grounded; nothing
    /// is written.
    pub fn append(&self, entry: &AuditEntry) -> Result<(), ModelError> {
        if !entry.is_groundable() {
            return Err(ModelError::EmptyTerm);
        }
        self.entries.write().push(entry.clone());
        Ok(())
    }

    /// Appends many entries (one lock acquisition). All or nothing: one
    /// ungroundable entry rejects the whole batch.
    ///
    /// # Errors
    /// [`ModelError::EmptyTerm`] if any entry cannot be grounded.
    pub fn append_all<'a, I: IntoIterator<Item = &'a AuditEntry>>(
        &self,
        entries: I,
    ) -> Result<usize, ModelError> {
        let batch: Vec<AuditEntry> = entries.into_iter().cloned().collect();
        if !batch.iter().all(AuditEntry::is_groundable) {
            return Err(ModelError::EmptyTerm);
        }
        let n = batch.len();
        self.entries.write().extend(batch);
        Ok(n)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True iff no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, in append order.
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries.read().clone()
    }

    /// Entries with `status = exception` — what Algorithm 3 keeps.
    pub fn exception_entries(&self) -> Vec<AuditEntry> {
        self.entries
            .read()
            .iter()
            .filter(|e| e.is_exception())
            .cloned()
            .collect()
    }

    /// The trail as the formal model's audit-log policy `P_AL` — one ground
    /// rule per entry (Section 3.3: "By default, this policy is a ground
    /// policy"). Duplicate accesses produce duplicate rules; the range set
    /// dedups them, while entry-weighted coverage counts them individually.
    pub fn to_policy(&self) -> Policy {
        Policy::from_ground_rules(StoreTag::AuditLog, self.ground_rules())
    }

    /// One `(data, purpose, authorized)` ground rule per entry, in append
    /// order (the multiset view used by entry-weighted coverage).
    pub fn ground_rules(&self) -> Vec<GroundRule> {
        self.entries
            .read()
            .iter()
            .map(|e| {
                e.to_ground_rule()
                    .expect("appends admit only groundable entries")
            })
            .collect()
    }

    /// Approximate storage footprint in bytes (experiment E6 reports
    /// bytes/entry): the entry slots plus the heap bytes of their strings.
    pub fn approx_bytes(&self) -> usize {
        let entries = self.entries.read();
        entries.capacity() * size_of::<AuditEntry>()
            + entries
                .iter()
                .map(|e| {
                    e.user.capacity()
                        + e.data.capacity()
                        + e.purpose.capacity()
                        + e.authorized.capacity()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AuditStore {
        let s = AuditStore::new("ward-a");
        s.append(&AuditEntry::regular(
            1,
            "tim",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        s.append(&AuditEntry::exception(
            2,
            "mark",
            "referral",
            "registration",
            "nurse",
        ))
        .unwrap();
        s.append(&AuditEntry::exception(
            3,
            "mark",
            "referral",
            "registration",
            "nurse",
        ))
        .unwrap();
        s
    }

    #[test]
    fn append_and_read_back() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let entries = s.entries();
        assert_eq!(entries[0].user, "tim");
        assert_eq!(entries[2].time, 3);
    }

    #[test]
    fn exception_filtering() {
        let s = store();
        let ex = s.exception_entries();
        assert_eq!(ex.len(), 2);
        assert!(ex.iter().all(AuditEntry::is_exception));
    }

    #[test]
    fn policy_keeps_per_entry_rules_but_range_dedups() {
        let s = store();
        let p = s.to_policy();
        assert_eq!(p.cardinality(), 3, "one rule per entry");
        assert_eq!(p.tag(), &StoreTag::AuditLog);
        let rules = s.ground_rules();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[1], rules[2], "duplicate accesses stay duplicated");
    }

    #[test]
    fn snapshot_is_isolated_from_later_appends() {
        let s = store();
        let snap = s.entries();
        s.append(&AuditEntry::regular(4, "x", "d", "p", "a"))
            .unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn ungroundable_entries_are_rejected_whole_batch() {
        let s = store();
        let blank = AuditEntry::regular(4, "x", "referral", "  ", "nurse");
        assert_eq!(s.append(&blank), Err(ModelError::EmptyTerm));
        let ok = AuditEntry::regular(5, "y", "referral", "treatment", "nurse");
        assert_eq!(s.append_all([&ok, &blank]), Err(ModelError::EmptyTerm));
        assert_eq!(s.len(), 3, "nothing of a rejected batch is written");
        assert_eq!(s.ground_rules().len(), 3);
    }

    #[test]
    fn append_all_batches() {
        let s = AuditStore::new("batch");
        let entries: Vec<AuditEntry> = (0..10)
            .map(|i| AuditEntry::regular(i, "u", "d", "p", "a"))
            .collect();
        assert_eq!(s.append_all(&entries).unwrap(), 10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn clone_is_a_cheap_shared_handle() {
        // Cloning must share the one trail behind the lock, not deep-copy
        // it: the stream engine clones its sink per ingest site, and the
        // federation registers the same store the engine writes to.
        let a = store();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        b.append(&AuditEntry::regular(9, "zoe", "claim", "billing", "clerk"))
            .unwrap();
        assert_eq!(a.len(), 4, "append via one clone is visible via the other");
    }

    #[test]
    fn handles_move_across_threads() {
        fn assert_share<T: Send + Sync + Clone>() {}
        assert_share::<AuditStore>();

        // A reader thread sees a writer thread's appends through its own
        // clone of the handle (no channel, no explicit synchronization
        // beyond the store itself).
        let s = AuditStore::new("shared");
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    s.append(&AuditEntry::regular(i, "w", "d", "p", "a"))
                        .unwrap();
                }
            })
        };
        let reader = {
            let s = s.clone();
            std::thread::spawn(move || {
                while s.len() < 100 {
                    std::thread::yield_now();
                }
                s.ground_rules().len()
            })
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 100);
    }

    #[test]
    fn concurrent_writers() {
        let s = AuditStore::new("busy");
        let mut handles = Vec::new();
        for w in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    s.append(&AuditEntry::regular(
                        (w * 1000 + i) as i64,
                        "u",
                        "d",
                        "p",
                        "a",
                    ))
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 1000);
    }
}
