//! Property test: Prune (Algorithm 6) through the policy matcher equals
//! the paper's literal set complement over materialized ranges, for
//! arbitrary policies and mined patterns over the Figure 1 vocabulary.

use prima_mining::Pattern;
use prima_model::{GroundRule, Policy, Rule, RuleTerm, StoreTag};
use prima_refine::prune::{prune, prune_materialized};
use prima_vocab::samples::figure_1;
use prima_vocab::{Vocabulary, ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use proptest::prelude::*;

const ATTRS: [&str; 3] = [ATTR_DATA, ATTR_PURPOSE, ATTR_AUTHORIZED];

/// All concept names of `attr` (composite and ground).
fn concepts(v: &Vocabulary, attr: &str) -> Vec<String> {
    let t = v.attribute(attr).expect("attribute exists");
    t.iter().map(|(_, c)| c.name.clone()).collect()
}

/// One value per attribute, drawn from `pool(attr)`.
fn arb_values(pool: fn(&Vocabulary, &str) -> Vec<String>) -> impl Strategy<Value = Vec<String>> {
    let v = figure_1();
    let pools: Vec<Vec<String>> = ATTRS.iter().map(|a| pool(&v, a)).collect();
    collection::vec(any::<sample::Index>(), ATTRS.len()).prop_map(move |picks| {
        pools
            .iter()
            .zip(picks)
            .map(|(names, i)| names[i.index(names.len())].clone())
            .collect()
    })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    collection::vec(arb_values(concepts), 0..=5).prop_map(|rules| {
        let rules = rules
            .iter()
            .map(|values| {
                let terms = ATTRS
                    .iter()
                    .zip(values)
                    .map(|(a, val)| RuleTerm::of(a, val));
                Rule::new(terms.collect()).expect("one term per attribute")
            })
            .collect();
        Policy::with_rules(StoreTag::PolicyStore, rules)
    })
}

/// Mined patterns are ground: values are taxonomy leaves.
fn arb_patterns() -> impl Strategy<Value = Vec<Pattern>> {
    collection::vec((arb_values(ground_concepts), 1..20usize), 0..=12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(values, support)| {
                let g = GroundRule::access(&values[0], &values[1], &values[2]).unwrap();
                Pattern::new(g, support, 2)
            })
            .collect()
    })
}

/// The ground (leaf) concept names of `attr`.
fn ground_concepts(v: &Vocabulary, attr: &str) -> Vec<String> {
    concepts(v, attr)
        .into_iter()
        .filter(|c| v.is_ground(attr, c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prune_equals_materialized_complement(
        policy in arb_policy(),
        patterns in arb_patterns(),
    ) {
        let v = figure_1();
        let lazy = prune(patterns.clone(), &policy, &v);
        let materialized = prune_materialized(patterns, &policy, &v).unwrap();
        prop_assert_eq!(lazy, materialized);
    }
}
