//! Policy coverage — Definition 9, Algorithm 1 (`ComputeCoverage`), and
//! Definition 10 (complete coverage).
//!
//! `Coverage_{P_y}^{P_x} = #(Range_{P_x} ∩ Range_{P_y}) ÷ #Range_{P_y}`,
//! with the intersection computed under rule equivalence (Definition 6).
//! Informally: how much of the *real* workflow (`P_y = P_AL`) is sanctioned
//! by the *ideal* workflow (`P_x = P_PS`).

use crate::error::ModelError;
use crate::ground::GroundRule;
use crate::policy::Policy;
use crate::range::{RangeSet, DEFAULT_RANGE_BUDGET};
use prima_vocab::Vocabulary;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How the coverage engine evaluates Definition 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Algorithm 1 verbatim: materialize both ranges, hash-intersect.
    #[default]
    MaterializeHash,
    /// Materialize both ranges, intersect by sort-merge (ablation partner).
    MaterializeSortMerge,
    /// Never materialize `Range(P_x)`: test each ground rule of
    /// `Range(P_y)` against the composite rules of `P_x` by per-attribute
    /// subsumption. Immune to policy-store range explosion.
    Lazy,
}

/// The result of a coverage computation.
///
/// Beyond the paper's scalar ratio, the report retains which ground rules of
/// the target range were and were not covered — the uncovered ones are
/// exactly the "exception scenarios" Figure 3 calls out.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// `#(Range_{P_x} ∩ Range_{P_y})` — the overlap cardinality (`m_o`).
    pub overlap: usize,
    /// `#Range_{P_y}` — the target range cardinality (`m_y`).
    pub target_cardinality: usize,
    /// Ground rules of `Range(P_y)` that are covered, canonically sorted.
    pub covered: Vec<GroundRule>,
    /// Ground rules of `Range(P_y)` that are not covered, canonically
    /// sorted.
    pub uncovered: Vec<GroundRule>,
}

impl CoverageReport {
    /// The coverage ratio `m_o ÷ m_y` in `[0, 1]`.
    ///
    /// For an empty target range the ratio is defined as 1: Definition 10's
    /// completeness condition `Range_x ∩ Range_y = Range_y` holds vacuously.
    pub fn ratio(&self) -> f64 {
        if self.target_cardinality == 0 {
            1.0
        } else {
            self.overlap as f64 / self.target_cardinality as f64
        }
    }

    /// The ratio as a percentage, the way the paper reports it ("50 %").
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }

    /// Definition 10: `P_x` completely covers `P_y` iff the intersection
    /// equals `Range_{P_y}`.
    pub fn is_complete(&self) -> bool {
        self.overlap == self.target_cardinality
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage = {}/{} = {:.1}%",
            self.overlap,
            self.target_cardinality,
            self.percent()
        )?;
        if !self.uncovered.is_empty() {
            writeln!(f, "uncovered (exception scenarios):")?;
            for g in &self.uncovered {
                writeln!(f, "  {g}")?;
            }
        }
        Ok(())
    }
}

/// Algorithm 1, `ComputeCoverage(P_x, P_y, V)`, with the default strategy
/// and range budget.
pub fn compute_coverage(
    px: &Policy,
    py: &Policy,
    vocab: &Vocabulary,
) -> Result<CoverageReport, ModelError> {
    CoverageEngine::default().coverage(px, py, vocab)
}

/// A configurable coverage evaluator (strategy + range budget).
#[derive(Debug, Clone, Copy)]
pub struct CoverageEngine {
    strategy: Strategy,
    budget: usize,
}

impl Default for CoverageEngine {
    fn default() -> Self {
        Self {
            strategy: Strategy::default(),
            budget: DEFAULT_RANGE_BUDGET,
        }
    }
}

impl CoverageEngine {
    /// Creates an engine with the given strategy and the default budget.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            budget: DEFAULT_RANGE_BUDGET,
        }
    }

    /// Overrides the materialization budget (ground rules per range).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Computes `Coverage_{P_y}^{P_x}` (Definition 9).
    ///
    /// Note the asymmetry, which follows the paper: the *target* `P_y`
    /// (typically the audit-log policy) supplies the denominator; `P_x`
    /// (typically the policy store) supplies the sanctioning range.
    pub fn coverage(
        &self,
        px: &Policy,
        py: &Policy,
        vocab: &Vocabulary,
    ) -> Result<CoverageReport, ModelError> {
        let range_y = RangeSet::of_policy_bounded(py, vocab, self.budget)?;
        match self.strategy {
            Strategy::MaterializeHash | Strategy::MaterializeSortMerge => {
                let range_x = RangeSet::of_policy_bounded(px, vocab, self.budget)?;
                let overlap_set = match self.strategy {
                    Strategy::MaterializeHash => range_x.intersect(&range_y),
                    _ => range_x.intersect_sorted(&range_y),
                };
                Ok(split_report(&range_y, |g| overlap_set.contains(g)))
            }
            Strategy::Lazy => {
                let matcher = PolicyMatcher::new(px, vocab);
                Ok(split_report(&range_y, |g| matcher.covers(g)))
            }
        }
    }

    /// Convenience: just the ratio.
    pub fn coverage_ratio(
        &self,
        px: &Policy,
        py: &Policy,
        vocab: &Vocabulary,
    ) -> Result<f64, ModelError> {
        Ok(self.coverage(px, py, vocab)?.ratio())
    }
}

fn split_report<F: Fn(&GroundRule) -> bool>(range_y: &RangeSet, is_covered: F) -> CoverageReport {
    let mut covered = Vec::new();
    let mut uncovered = Vec::new();
    for g in range_y.iter() {
        if is_covered(g) {
            covered.push(g.clone());
        } else {
            uncovered.push(g.clone());
        }
    }
    covered.sort();
    uncovered.sort();
    CoverageReport {
        overlap: covered.len(),
        target_cardinality: range_y.cardinality(),
        covered,
        uncovered,
    }
}

/// Entry-weighted coverage: the fraction of audit-log *entries* (a multiset
/// of ground rules) sanctioned by `px`.
///
/// Definition 9 computes coverage over range *sets*, under which repeated
/// accesses collapse to one ground rule. But the paper's own Section 5 use
/// case reports 30 % for Table 1 — 3 covered entries out of 10 — which is a
/// per-entry computation: the trail's five `referral:registration:nurse`
/// rows count five times. Both semantics matter operationally (the set view
/// measures *policy* completeness, the entry view measures how much of the
/// day-to-day *workload* runs on exceptions), so this crate exposes both;
/// `EXPERIMENTS.md` §E3 documents the discrepancy in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryCoverageReport {
    /// Number of entries sanctioned by the policy.
    pub covered_entries: usize,
    /// Total entries examined.
    pub total_entries: usize,
    /// Indices (into the input slice) of uncovered entries.
    pub uncovered_indices: Vec<usize>,
}

impl EntryCoverageReport {
    /// `covered ÷ total`, defined as 1 for an empty trail.
    pub fn ratio(&self) -> f64 {
        if self.total_entries == 0 {
            1.0
        } else {
            self.covered_entries as f64 / self.total_entries as f64
        }
    }

    /// The ratio as a percentage.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }
}

impl CoverageEngine {
    /// Computes entry-weighted coverage of `entries` by `px` (always via
    /// the lazy subsumption test — no range materialization needed).
    pub fn entry_coverage(
        &self,
        px: &Policy,
        entries: &[GroundRule],
        vocab: &Vocabulary,
    ) -> EntryCoverageReport {
        let matcher = PolicyMatcher::new(px, vocab);
        // Audit trails are highly repetitive (the same few access shapes
        // repeated thousands of times), so memoize the verdict per distinct
        // ground rule instead of re-running subsumption per entry.
        let mut verdicts: HashMap<&GroundRule, bool> = HashMap::new();
        let mut covered = 0usize;
        let mut uncovered_indices = Vec::new();
        for (i, g) in entries.iter().enumerate() {
            let hit = *verdicts.entry(g).or_insert_with(|| matcher.covers(g));
            if hit {
                covered += 1;
            } else {
                uncovered_indices.push(i);
            }
        }
        EntryCoverageReport {
            covered_entries: covered,
            total_entries: entries.len(),
            uncovered_indices,
        }
    }
}

/// The one membership test every layer decides an access with: batch and
/// streaming coverage, Prune, enforcement and serving all ask it, so their
/// verdicts share Definition 6 semantics by construction.
///
/// It owns the policy it indexes and the vocabulary the subsumption check
/// runs under, so it can be shared across threads (the streaming pipeline
/// hands it to its shard workers). Rules are grouped by attribute
/// signature, so a probe only runs [`crate::Rule::expansion_contains`] against
/// rules that could match; policies carry few distinct signatures, so
/// the groups are scanned rather than hashed and a probe allocates nothing.
#[derive(Debug, Clone)]
pub struct PolicyMatcher {
    policy: Policy,
    /// `(attribute signature, positions in policy.rules())`.
    by_signature: Vec<(Vec<String>, Vec<usize>)>,
    vocab: Arc<Vocabulary>,
}

impl PolicyMatcher {
    /// Builds a matcher for `policy` under `vocab`.
    pub fn new(policy: &Policy, vocab: &Vocabulary) -> Self {
        Self::with_shared_vocab(policy, Arc::new(vocab.clone()))
    }

    /// Builds a matcher reusing an already-shared vocabulary (cheap when
    /// re-indexing after a policy refinement).
    pub fn with_shared_vocab(policy: &Policy, vocab: Arc<Vocabulary>) -> Self {
        let mut by_signature: Vec<(Vec<String>, Vec<usize>)> = Vec::new();
        for (i, rule) in policy.rules().iter().enumerate() {
            let attrs = rule.terms().iter().map(|t| t.attr.as_str());
            match by_signature
                .iter_mut()
                .find(|(sig, _)| sig.iter().map(String::as_str).eq(attrs.clone()))
            {
                Some((_, positions)) => positions.push(i),
                None => by_signature.push((attrs.map(str::to_string).collect(), vec![i])),
            }
        }
        Self {
            policy: policy.clone(),
            by_signature,
            vocab,
        }
    }

    /// True iff some rule of the indexed policy sanctions `g`
    /// (Definition 6 equivalence).
    pub fn covers(&self, g: &GroundRule) -> bool {
        let rules = self.policy.rules();
        self.by_signature
            .iter()
            .find(|(sig, _)| sig.iter().map(String::as_str).eq(g.attrs()))
            .is_some_and(|(_, positions)| {
                positions
                    .iter()
                    .any(|&i| rules[i].expansion_contains(g, &self.vocab))
            })
    }

    /// The policy the matcher decides.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The vocabulary the matcher evaluates under.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StoreTag;
    use crate::rule::Rule;
    use prima_vocab::samples::figure_1;

    fn ps() -> Policy {
        Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                Rule::of(&[
                    ("data", "general-care"),
                    ("purpose", "treatment"),
                    ("authorized", "nurse"),
                ]),
                Rule::of(&[
                    ("data", "mental-health"),
                    ("purpose", "treatment"),
                    ("authorized", "physician"),
                ]),
                Rule::of(&[
                    ("data", "demographic"),
                    ("purpose", "billing"),
                    ("authorized", "clerk"),
                ]),
            ],
        )
    }

    fn al() -> Policy {
        let attrs =
            |d: &str, p: &str, a: &str| Rule::of(&[("data", d), ("purpose", p), ("authorized", a)]);
        Policy::with_rules(
            StoreTag::AuditLog,
            vec![
                attrs("prescription", "treatment", "nurse"),
                attrs("referral", "treatment", "nurse"),
                attrs("referral", "registration", "nurse"),
                attrs("psychiatry", "treatment", "nurse"),
                attrs("address", "billing", "clerk"),
                attrs("prescription", "billing", "clerk"),
            ],
        )
    }

    #[test]
    fn figure_3_coverage_is_fifty_percent() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        assert_eq!(report.overlap, 3);
        assert_eq!(report.target_cardinality, 6);
        assert!((report.ratio() - 0.5).abs() < f64::EPSILON);
        assert!((report.percent() - 50.0).abs() < f64::EPSILON);
        assert!(!report.is_complete());
    }

    #[test]
    fn figure_3_uncovered_rules_are_the_exception_scenarios() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        let uncovered: Vec<String> = report
            .uncovered
            .iter()
            .map(|g| g.compact(&["data", "purpose", "authorized"]))
            .collect();
        assert_eq!(
            uncovered,
            vec![
                "prescription:billing:clerk",
                "psychiatry:treatment:nurse",
                "referral:registration:nurse",
            ]
        );
    }

    #[test]
    fn all_strategies_agree_on_figure_3() {
        let v = figure_1();
        let base = compute_coverage(&ps(), &al(), &v).unwrap();
        for strategy in [
            Strategy::MaterializeHash,
            Strategy::MaterializeSortMerge,
            Strategy::Lazy,
        ] {
            let report = CoverageEngine::new(strategy)
                .coverage(&ps(), &al(), &v)
                .unwrap();
            assert_eq!(report, base, "strategy {strategy:?} must agree");
        }
    }

    #[test]
    fn lazy_strategy_survives_materialization_budget() {
        let v = figure_1();
        // Budget too small to materialize PS's range (3+2+4 = 9 ground
        // rules) but AL (6 ground rules) still fits.
        let engine = CoverageEngine::new(Strategy::Lazy).with_budget(6);
        let report = engine.coverage(&ps(), &al(), &v).unwrap();
        assert_eq!(report.overlap, 3);
        // The materializing engine trips on the same budget.
        let err = CoverageEngine::new(Strategy::MaterializeHash)
            .with_budget(6)
            .coverage(&ps(), &al(), &v)
            .unwrap_err();
        assert!(matches!(err, ModelError::RangeExplosion { .. }));
    }

    #[test]
    fn self_coverage_of_ground_policy_is_complete() {
        let v = figure_1();
        let report = compute_coverage(&al(), &al(), &v).unwrap();
        assert!(report.is_complete());
        assert!((report.ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_target_is_vacuously_complete() {
        let v = figure_1();
        let empty = Policy::new(StoreTag::AuditLog);
        let report = compute_coverage(&ps(), &empty, &v).unwrap();
        assert_eq!(report.target_cardinality, 0);
        assert!((report.ratio() - 1.0).abs() < f64::EPSILON);
        assert!(report.is_complete());
    }

    #[test]
    fn empty_source_covers_nothing() {
        let v = figure_1();
        let empty = Policy::new(StoreTag::PolicyStore);
        let report = compute_coverage(&empty, &al(), &v).unwrap();
        assert_eq!(report.overlap, 0);
        assert!((report.ratio() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn coverage_is_directional() {
        let v = figure_1();
        // Coverage of AL with respect to PS: how much of the ideal workflow
        // is actually exercised. Different denominator, different number.
        let forward = compute_coverage(&ps(), &al(), &v).unwrap();
        let backward = compute_coverage(&al(), &ps(), &v).unwrap();
        assert_eq!(forward.target_cardinality, 6);
        assert_eq!(backward.target_cardinality, 9); // 3 + 2 + 4 ground rules
        assert_ne!(forward.ratio(), backward.ratio());
    }

    #[test]
    fn entry_coverage_weights_duplicates() {
        let v = figure_1();
        let covered = GroundRule::of(&[
            ("data", "referral"),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ]);
        let uncovered = GroundRule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]);
        // 2 covered entries + 3 repeats of an uncovered one.
        let entries = vec![
            covered.clone(),
            covered,
            uncovered.clone(),
            uncovered.clone(),
            uncovered,
        ];
        let r = CoverageEngine::default().entry_coverage(&ps(), &entries, &v);
        assert_eq!(r.covered_entries, 2);
        assert_eq!(r.total_entries, 5);
        assert_eq!(r.uncovered_indices, vec![2, 3, 4]);
        assert!((r.ratio() - 0.4).abs() < f64::EPSILON);
        // Set-based coverage over the same trail would be 1/2 instead.
    }

    #[test]
    fn entry_coverage_of_empty_trail_is_one() {
        let v = figure_1();
        let r = CoverageEngine::default().entry_coverage(&ps(), &[], &v);
        assert!((r.ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(r.percent(), 100.0);
    }

    #[test]
    fn report_display_mentions_ratio_and_exceptions() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        let text = report.to_string();
        assert!(text.contains("3/6"));
        assert!(text.contains("50.0%"));
        assert!(text.contains("exception scenarios"));
    }
}
