//! Algorithm 6: `Prune(Patterns, P_PS, V)` — drop patterns the policy
//! store already covers.
//!
//! The pseudocode takes the "set complement" of the two ranges:
//! `usefulPatterns = Range(Patterns) \ Range(P_PS)`. Materializing
//! `Range(P_PS)` can explode for broad composite policies, so the
//! implementation asks the formal model's [`PolicyMatcher`] — a pattern is
//! pruned iff some policy rule's expansion contains it — which is
//! definitionally the same set (property-checked against the materialized
//! complement in the tests).

use prima_mining::Pattern;
use prima_model::{Policy, PolicyMatcher, RangeSet};
use prima_vocab::Vocabulary;

/// The result of pruning, keeping the evidence of what was already covered.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Patterns not yet covered by the policy store — the refinement
    /// candidates.
    pub useful: Vec<Pattern>,
    /// Patterns the policy store already covers (no action needed; their
    /// presence usually means users break glass out of habit even where
    /// policy would allow a regular access).
    pub already_covered: Vec<Pattern>,
}

/// Algorithm 6 via lazy membership.
pub fn prune(patterns: Vec<Pattern>, policy_store: &Policy, vocab: &Vocabulary) -> PruneOutcome {
    let matcher = PolicyMatcher::new(policy_store, vocab);
    let (already_covered, useful) = patterns.into_iter().partition(|p| matcher.covers(&p.rule));
    PruneOutcome {
        useful,
        already_covered,
    }
}

/// Algorithm 6 exactly as written: materialize both ranges and take the
/// set complement. Kept for the fidelity tests and the E9 ablation; prefer
/// [`prune`].
pub fn prune_materialized(
    patterns: Vec<Pattern>,
    policy_store: &Policy,
    vocab: &Vocabulary,
) -> Result<PruneOutcome, prima_model::ModelError> {
    let ps_range = RangeSet::of_policy(policy_store, vocab)?;
    let (already_covered, useful) = patterns
        .into_iter()
        .partition(|p| ps_range.contains(&p.rule));
    Ok(PruneOutcome {
        useful,
        already_covered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::samples::figure_3_policy_store;
    use prima_model::GroundRule;
    use prima_vocab::samples::figure_1;

    fn pat(d: &str, p: &str, a: &str, support: usize) -> Pattern {
        Pattern::new(
            GroundRule::of(&[("data", d), ("purpose", p), ("authorized", a)]),
            support,
            2,
        )
    }

    #[test]
    fn uncovered_pattern_survives() {
        let v = figure_1();
        let out = prune(
            vec![pat("referral", "registration", "nurse", 5)],
            &figure_3_policy_store(),
            &v,
        );
        assert_eq!(out.useful.len(), 1);
        assert!(out.already_covered.is_empty());
    }

    #[test]
    fn covered_pattern_is_pruned() {
        let v = figure_1();
        // referral:treatment:nurse is inside rule 1's expansion.
        let out = prune(
            vec![
                pat("referral", "treatment", "nurse", 7),
                pat("referral", "registration", "nurse", 5),
            ],
            &figure_3_policy_store(),
            &v,
        );
        assert_eq!(out.useful.len(), 1);
        assert_eq!(out.already_covered.len(), 1);
        assert_eq!(
            out.already_covered[0].compact(&["data", "purpose", "authorized"]),
            "referral:treatment:nurse"
        );
    }

    #[test]
    fn lazy_and_materialized_agree() {
        let v = figure_1();
        let patterns = vec![
            pat("referral", "treatment", "nurse", 7),
            pat("referral", "registration", "nurse", 5),
            pat("address", "billing", "clerk", 3),
            pat("psychiatry", "treatment", "doctor", 2),
        ];
        let lazy = prune(patterns.clone(), &figure_3_policy_store(), &v);
        let mat = prune_materialized(patterns, &figure_3_policy_store(), &v).unwrap();
        assert_eq!(lazy, mat);
        assert_eq!(lazy.useful.len(), 2);
    }

    #[test]
    fn empty_patterns_are_fine() {
        let v = figure_1();
        let out = prune(vec![], &figure_3_policy_store(), &v);
        assert!(out.useful.is_empty() && out.already_covered.is_empty());
    }
}
