//! Tree-aware Active Enforcement: subtree redaction.
//!
//! The relational AE suppresses columns; the hierarchical AE prunes
//! subtrees. A request names a role, a purpose, and an access mode; the
//! enforcement walks the document, resolves each region's data category
//! through the [`PathCategoryMap`], asks the same formal-model question as
//! the relational middleware (`does P_PS sanction (category, purpose,
//! role)?`), and produces a *view* containing only sanctioned regions.
//! Unmapped regions are redacted (fail closed). Break-the-glass returns
//! the full document and audits every touched category as an exception —
//! so hierarchical systems feed the identical refinement loop.

use crate::category::PathCategoryMap;
use crate::doc::{Document, NodeId};
use prima_audit::{AccessStatus, AuditEntry, Op};
use prima_model::{GroundRule, Policy, PolicyMatcher};
use prima_vocab::Vocabulary;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The result of enforcing a request over a document.
#[derive(Debug, Clone)]
pub struct RedactionOutcome {
    /// The permitted view (root always present; a fully-denied request
    /// yields a bare root).
    pub view: Document,
    /// Node count redacted away.
    pub redacted_nodes: usize,
    /// Categories served (sorted).
    pub served_categories: Vec<String>,
    /// Categories redacted (sorted; empty under break-the-glass).
    pub redacted_categories: Vec<String>,
    /// Audit entries describing the access.
    pub audit_entries: Vec<AuditEntry>,
}

/// Access mode (mirrors the relational middleware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeAccessMode {
    /// Purpose chosen from the policy list; unsanctioned regions redacted.
    Chosen,
    /// Break-the-glass: full document, audited as an exception.
    BreakTheGlass,
}

/// Tree-aware Active Enforcement middleware.
#[derive(Debug, Clone)]
pub struct TreeEnforcement {
    matcher: PolicyMatcher,
    categories: PathCategoryMap,
}

impl TreeEnforcement {
    /// Builds the middleware.
    pub fn new(policy: Policy, vocab: Vocabulary, categories: PathCategoryMap) -> Self {
        Self {
            matcher: PolicyMatcher::with_shared_vocab(&policy, Arc::new(vocab)),
            categories,
        }
    }

    /// Replaces the enforced policy (after refinement).
    pub fn set_policy(&mut self, policy: Policy) {
        self.matcher = PolicyMatcher::with_shared_vocab(&policy, Arc::clone(self.matcher.vocab()));
    }

    /// The enforced policy.
    pub fn policy(&self) -> &Policy {
        self.matcher.policy()
    }

    /// Mutable access to the path → data-category map.
    pub fn categories_mut(&mut self) -> &mut PathCategoryMap {
        &mut self.categories
    }

    /// An access with a blank field is never sanctioned.
    fn allows(&self, category: &str, purpose: &str, role: &str) -> bool {
        GroundRule::access(category, purpose, role).is_ok_and(|g| self.matcher.covers(&g))
    }

    /// Enforces a request over `doc`.
    pub fn enforce(
        &self,
        doc: &Document,
        time: i64,
        user: &str,
        role: &str,
        purpose: &str,
        mode: TreeAccessMode,
    ) -> RedactionOutcome {
        let mut view = Document::new(&doc.node(doc.root()).name);
        if let Some(t) = &doc.node(doc.root()).text {
            // Root text carries no category of its own; treat the root as
            // structural scaffolding (always present, never payload).
            let _ = t;
        }
        let mut served: BTreeSet<String> = BTreeSet::new();
        let mut redacted: BTreeSet<String> = BTreeSet::new();
        let mut redacted_nodes = 0usize;

        let view_root = view.root();
        self.walk(
            doc,
            doc.root(),
            &mut view,
            view_root,
            role,
            purpose,
            mode,
            &mut served,
            &mut redacted,
            &mut redacted_nodes,
        );

        let status = match mode {
            TreeAccessMode::Chosen => AccessStatus::Regular,
            TreeAccessMode::BreakTheGlass => AccessStatus::Exception,
        };
        let mut audit_entries = Vec::new();
        for cat in &served {
            audit_entries.push(AuditEntry {
                time,
                op: Op::Allow,
                user: user.to_string(),
                data: cat.clone(),
                purpose: purpose.to_string(),
                authorized: role.to_string(),
                status,
            });
        }
        for cat in &redacted {
            audit_entries.push(AuditEntry {
                time,
                op: Op::Disallow,
                user: user.to_string(),
                data: cat.clone(),
                purpose: purpose.to_string(),
                authorized: role.to_string(),
                status: AccessStatus::Regular,
            });
        }

        RedactionOutcome {
            view,
            redacted_nodes,
            served_categories: served.into_iter().collect(),
            redacted_categories: redacted.into_iter().collect(),
            audit_entries,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        doc: &Document,
        node: NodeId,
        view: &mut Document,
        view_parent: NodeId,
        role: &str,
        purpose: &str,
        mode: TreeAccessMode,
        served: &mut BTreeSet<String>,
        redacted: &mut BTreeSet<String>,
        redacted_nodes: &mut usize,
    ) {
        for &child in &doc.node(node).children {
            let path = doc.segments_of(child);
            match self.categories.category_of(&path) {
                Some(cat) => {
                    let allowed =
                        mode == TreeAccessMode::BreakTheGlass || self.allows(cat, purpose, role);
                    if allowed {
                        served.insert(cat.to_string());
                        doc.copy_subtree_into(child, view, view_parent);
                    } else {
                        redacted.insert(cat.to_string());
                        *redacted_nodes += doc.descendants(child).len();
                    }
                }
                None => {
                    if doc.node(child).children.is_empty() && doc.node(child).text.is_some() {
                        // An unmapped *leaf with payload* fails closed.
                        if mode == TreeAccessMode::BreakTheGlass {
                            served.insert(format!("unmapped:{}", doc.path_of(child)));
                            doc.copy_subtree_into(child, view, view_parent);
                        } else {
                            redacted.insert(format!("unmapped:{}", doc.path_of(child)));
                            *redacted_nodes += 1;
                        }
                    } else {
                        // Structural node: keep the shell, recurse.
                        let shell = view.add_child(view_parent, &doc.node(child).name);
                        self.walk(
                            doc,
                            child,
                            view,
                            shell,
                            role,
                            purpose,
                            mode,
                            served,
                            redacted,
                            redacted_nodes,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::{Rule, StoreTag};
    use prima_vocab::samples::figure_1;

    fn doc() -> Document {
        let mut d = Document::new("patient");
        let demo = d.add_child(d.root(), "demographic");
        d.add_text_child(demo, "name", "Ada Pine");
        d.add_text_child(demo, "address", "12 Oak St");
        let rec = d.add_child(d.root(), "record");
        d.add_text_child(rec, "referral", "cardiology");
        let mh = d.add_child(rec, "mental-health");
        d.add_text_child(mh, "psychiatry", "session notes");
        d
    }

    fn categories() -> PathCategoryMap {
        let mut m = PathCategoryMap::new();
        m.map("/patient/demographic/**", "demographic").unwrap();
        m.map("/patient/record/referral", "referral").unwrap();
        m.map("/patient/record/mental-health/**", "psychiatry")
            .unwrap();
        m
    }

    fn enforcement() -> TreeEnforcement {
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                ("data", "general-care"),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ])],
        );
        TreeEnforcement::new(policy, figure_1(), categories())
    }

    #[test]
    fn sanctioned_regions_survive_unsanctioned_are_pruned() {
        let e = enforcement();
        let out = e.enforce(
            &doc(),
            1,
            "tim",
            "nurse",
            "treatment",
            TreeAccessMode::Chosen,
        );
        let xml = out.view.to_xml();
        assert!(xml.contains("<referral>cardiology</referral>"));
        assert!(
            !xml.contains("psychiatry"),
            "mental health redacted:\n{xml}"
        );
        assert!(!xml.contains("Ada Pine"), "demographics redacted");
        assert_eq!(out.served_categories, vec!["referral"]);
        assert_eq!(out.redacted_categories, vec!["demographic", "psychiatry"]);
        assert!(out.redacted_nodes >= 5);
    }

    #[test]
    fn audit_entries_mirror_relational_middleware() {
        let e = enforcement();
        let out = e.enforce(
            &doc(),
            9,
            "tim",
            "nurse",
            "treatment",
            TreeAccessMode::Chosen,
        );
        assert_eq!(out.audit_entries.len(), 3);
        let allow: Vec<&AuditEntry> = out
            .audit_entries
            .iter()
            .filter(|a| a.op == Op::Allow)
            .collect();
        assert_eq!(allow.len(), 1);
        assert_eq!(allow[0].data, "referral");
        assert_eq!(allow[0].status, AccessStatus::Regular);
    }

    #[test]
    fn break_the_glass_serves_everything_as_exception() {
        let e = enforcement();
        let out = e.enforce(
            &doc(),
            2,
            "mark",
            "nurse",
            "registration",
            TreeAccessMode::BreakTheGlass,
        );
        assert_eq!(out.redacted_nodes, 0);
        assert!(out.view.to_xml().contains("session notes"));
        assert!(out
            .audit_entries
            .iter()
            .all(|a| a.op == Op::Allow && a.status == AccessStatus::Exception));
    }

    #[test]
    fn unmapped_payload_leaves_fail_closed() {
        let mut d = doc();
        let rec = d
            .descendants(d.root())
            .into_iter()
            .find(|&id| d.node(id).name == "record")
            .unwrap();
        d.add_text_child(rec, "free-text-note", "sensitive scribble");
        let e = enforcement();
        let out = e.enforce(&d, 3, "tim", "nurse", "treatment", TreeAccessMode::Chosen);
        assert!(!out.view.to_xml().contains("scribble"));
        assert!(out
            .redacted_categories
            .iter()
            .any(|c| c.starts_with("unmapped:")));
    }

    #[test]
    fn refined_policy_unredacts() {
        let mut e = enforcement();
        let before = e.enforce(
            &doc(),
            4,
            "ana",
            "nurse",
            "registration",
            TreeAccessMode::Chosen,
        );
        assert!(before.served_categories.is_empty());
        let mut p = e.policy().clone();
        p.push(Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        e.set_policy(p);
        let after = e.enforce(
            &doc(),
            5,
            "ana",
            "nurse",
            "registration",
            TreeAccessMode::Chosen,
        );
        assert_eq!(after.served_categories, vec!["referral"]);
    }

    #[test]
    fn tree_audit_feeds_the_standard_refinement_pipeline() {
        // Five nurses break the glass on the same document region; the
        // unchanged relational refinement pipeline mines the workflow.
        let e = enforcement();
        let store = prima_audit::AuditStore::new("legacy-system");
        for (t, nurse) in [(1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "b")] {
            let out = e.enforce(
                &doc(),
                t,
                nurse,
                "nurse",
                "registration",
                TreeAccessMode::BreakTheGlass,
            );
            // Only log the referral region's entries to keep the fixture
            // focused (a real adapter logs everything).
            for entry in out.audit_entries.iter().filter(|a| a.data == "referral") {
                store.append(entry).unwrap();
            }
        }
        let report = prima_refine::refinement(e.policy(), &store.entries(), &figure_1()).unwrap();
        assert_eq!(report.useful_patterns.len(), 1);
        assert_eq!(
            report.useful_patterns[0].compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
    }
}
