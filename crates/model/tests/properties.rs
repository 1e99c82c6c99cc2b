//! Property-based tests for the formal model's algebraic invariants.
//!
//! The generators draw random (possibly composite) policies over the
//! Figure 1 vocabulary and over a deeper synthetic vocabulary, then check
//! the laws the paper's definitions imply.

use prima_model::Strategy as CovStrategy;
use prima_model::{
    compute_coverage, CoverageEngine, Policy, PolicyMatcher, RangeSet, Rule, RuleTerm, StoreTag,
};
use prima_vocab::samples::figure_1;
use prima_vocab::synthetic::{synthetic_vocabulary, SyntheticSpec};
use prima_vocab::Vocabulary;
use proptest::prelude::*;

/// All concept names of an attribute (composite and ground).
fn concept_names(v: &Vocabulary, attr: &str) -> Vec<String> {
    let t = v.attribute(attr).expect("attribute exists");
    t.iter().map(|(_, c)| c.name.clone()).collect()
}

/// Strategy producing a random rule over the given vocabulary: one term per
/// attribute, values drawn from anywhere in the taxonomy (so rules mix
/// ground and composite terms).
fn arb_rule(v: &Vocabulary) -> impl Strategy<Value = Rule> {
    let per_attr: Vec<(String, Vec<String>)> = v
        .attribute_names()
        .map(|a| (a.to_string(), concept_names(v, a)))
        .collect();
    let selectors: Vec<_> = per_attr
        .iter()
        .map(|(_, names)| 0..names.len())
        .collect::<Vec<_>>();
    (
        collection::vec(any::<sample::Index>(), per_attr.len()),
        Just(per_attr),
    )
        .prop_map(move |(indices, per_attr)| {
            let _ = &selectors;
            let terms: Vec<RuleTerm> = per_attr
                .iter()
                .zip(indices)
                .map(|((attr, names), idx)| RuleTerm::of(attr, &names[idx.index(names.len())]))
                .collect();
            Rule::new(terms).expect("one term per attribute")
        })
}

fn arb_policy(v: &Vocabulary, tag: StoreTag, max_rules: usize) -> impl Strategy<Value = Policy> {
    collection::vec(arb_rule(v), 1..=max_rules)
        .prop_map(move |rules| Policy::with_rules(tag.clone(), rules))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn coverage_ratio_is_within_unit_interval(
        px in arb_policy(&figure_1(), StoreTag::PolicyStore, 5),
        py in arb_policy(&figure_1(), StoreTag::AuditLog, 5),
    ) {
        let v = figure_1();
        let r = compute_coverage(&px, &py, &v).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.ratio()));
        prop_assert_eq!(r.covered.len() + r.uncovered.len(), r.target_cardinality);
        prop_assert_eq!(r.covered.len(), r.overlap);
    }

    #[test]
    fn strategies_agree(
        px in arb_policy(&figure_1(), StoreTag::PolicyStore, 5),
        py in arb_policy(&figure_1(), StoreTag::AuditLog, 5),
    ) {
        let v = figure_1();
        let hash = CoverageEngine::new(CovStrategy::MaterializeHash).coverage(&px, &py, &v).unwrap();
        let merge = CoverageEngine::new(CovStrategy::MaterializeSortMerge).coverage(&px, &py, &v).unwrap();
        let lazy = CoverageEngine::new(CovStrategy::Lazy).coverage(&px, &py, &v).unwrap();
        prop_assert_eq!(&hash, &merge);
        prop_assert_eq!(&hash, &lazy);
    }

    #[test]
    fn self_coverage_is_complete(
        p in arb_policy(&figure_1(), StoreTag::PolicyStore, 5),
    ) {
        let v = figure_1();
        let r = compute_coverage(&p, &p, &v).unwrap();
        prop_assert!(r.is_complete(), "a policy must completely cover itself");
        prop_assert!((r.ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn adding_rules_never_decreases_coverage(
        px in arb_policy(&figure_1(), StoreTag::PolicyStore, 4),
        extra in arb_rule(&figure_1()),
        py in arb_policy(&figure_1(), StoreTag::AuditLog, 5),
    ) {
        let v = figure_1();
        let before = compute_coverage(&px, &py, &v).unwrap().ratio();
        let mut bigger = px.clone();
        bigger.push(extra);
        let after = compute_coverage(&bigger, &py, &v).unwrap().ratio();
        prop_assert!(after >= before - f64::EPSILON,
            "refinement monotonicity: adding a rule must not lose coverage");
    }

    #[test]
    fn range_cardinality_bounded_by_expansion_size(
        p in arb_policy(&figure_1(), StoreTag::PolicyStore, 5),
    ) {
        let v = figure_1();
        let range = RangeSet::of_policy(&p, &v).unwrap();
        prop_assert!((range.cardinality() as u128) <= p.expansion_size(&v));
        prop_assert!(!range.is_empty());
    }

    #[test]
    fn policy_range_matches_matcher_membership(
        p in arb_policy(&figure_1(), StoreTag::PolicyStore, 5),
        probe in arb_rule(&figure_1()),
    ) {
        let v = figure_1();
        let range = RangeSet::of_policy(&p, &v).unwrap();
        let matcher = PolicyMatcher::new(&p, &v);
        // Any ground rule of the probe's expansion, and every member of the
        // range itself: materialized membership must agree with the
        // subsumption-based matcher.
        for g in probe.ground_expansion(&v).take(16) {
            prop_assert_eq!(matcher.covers(&g), range.contains(&g), "{}", g);
        }
        for g in range.iter() {
            prop_assert!(matcher.covers(g), "{}", g);
        }
    }

    #[test]
    fn term_equivalence_is_reflexive_and_symmetric(
        a in arb_rule(&figure_1()),
        b in arb_rule(&figure_1()),
    ) {
        let v = figure_1();
        for t in a.terms() {
            prop_assert!(t.equivalent(t, &v));
        }
        for ta in a.terms() {
            for tb in b.terms() {
                prop_assert_eq!(ta.equivalent(tb, &v), tb.equivalent(ta, &v));
            }
        }
    }

    #[test]
    fn rule_equivalence_is_reflexive_and_symmetric(
        a in arb_rule(&figure_1()),
        b in arb_rule(&figure_1()),
    ) {
        let v = figure_1();
        prop_assert!(a.equivalent(&a, &v));
        prop_assert_eq!(a.equivalent(&b, &v), b.equivalent(&a, &v));
    }

    #[test]
    fn union_coverage_dominates_parts(
        px1 in arb_policy(&figure_1(), StoreTag::PolicyStore, 3),
        px2 in arb_policy(&figure_1(), StoreTag::PolicyStore, 3),
        py in arb_policy(&figure_1(), StoreTag::AuditLog, 5),
    ) {
        let v = figure_1();
        let mut both = px1.clone();
        for r in px2.rules() {
            both.push(r.clone());
        }
        let c1 = compute_coverage(&px1, &py, &v).unwrap().ratio();
        let c2 = compute_coverage(&px2, &py, &v).unwrap().ratio();
        let cu = compute_coverage(&both, &py, &v).unwrap().ratio();
        prop_assert!(cu >= c1.max(c2) - f64::EPSILON);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn strategies_agree_on_synthetic_vocabulary(
        seed_px in collection::vec((0usize..30, 0usize..30, 0usize..30), 1..4),
        seed_py in collection::vec((0usize..30, 0usize..30, 0usize..30), 1..6),
    ) {
        let spec = SyntheticSpec { attributes: 3, fan_out: 3, depth: 2, roots: 2 };
        let v = synthetic_vocabulary(spec);
        let names: Vec<Vec<String>> = (0..3)
            .map(|a| concept_names(&v, &format!("attr{a}")))
            .collect();
        let mk = |choices: &[(usize, usize, usize)], tag: StoreTag| {
            let rules = choices.iter().map(|&(a, b, c)| {
                Rule::of(&[
                    ("attr0", &names[0][a % names[0].len()]),
                    ("attr1", &names[1][b % names[1].len()]),
                    ("attr2", &names[2][c % names[2].len()]),
                ])
            }).collect();
            Policy::with_rules(tag, rules)
        };
        let px = mk(&seed_px, StoreTag::PolicyStore);
        let py = mk(&seed_py, StoreTag::AuditLog);
        let hash = CoverageEngine::new(CovStrategy::MaterializeHash).coverage(&px, &py, &v).unwrap();
        let lazy = CoverageEngine::new(CovStrategy::Lazy).coverage(&px, &py, &v).unwrap();
        prop_assert_eq!(hash, lazy);
    }
}
