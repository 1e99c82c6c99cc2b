//! `PA001` — shadowing/redundancy: a rule fully subsumed by another rule
//! of the same policy.
//!
//! This generalizes `prima_model::simplify::rule_subsumes` from pairwise
//! cleanup to whole-policy analysis without the O(n²) scan: rules are
//! grouped by attribute-set signature, and within a group a rule's
//! potential subsumers are enumerated as the Cartesian product of its
//! values' **ancestor chains** (self → taxonomy root) and found by
//! looking up each combination's packed value-id key. Rule `B` subsumes
//! rule `A` iff, per attribute, `B`'s value is an ancestor of (or equal
//! to) `A`'s value — so every subsumer of `A` *is* one of those ancestor
//! combinations. Chain lengths are bounded by taxonomy height, making the
//! product small (≤ `height^#R`); a configurable cap falls back to the
//! pairwise scan for pathological depths.

use prima_model::diag::{DiagCode, DiagLocation, Diagnostic};
use prima_model::{rule_subsumes, Policy, Rule};
use prima_vocab::Vocabulary;
use std::collections::HashMap;

/// Runs the shadowing pass over one policy.
pub fn shadowing_pass(policy: &Policy, vocab: &Vocabulary, chain_cap: usize) -> Vec<Diagnostic> {
    let rules = policy.rules();
    // Group rule indexes by attribute-set signature.
    let mut groups: HashMap<Vec<&str>, Vec<usize>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        let sig: Vec<&str> = rule.terms().iter().map(|t| t.attr.as_str()).collect();
        groups.entry(sig).or_default().push(i);
    }

    let mut diags = Vec::new();
    for indexes in groups.values() {
        if indexes.len() < 2 {
            continue;
        }
        shadow_group(policy, rules, indexes, vocab, chain_cap, &mut diags);
    }
    // Deterministic order regardless of hash iteration.
    diags.sort_by_key(|d| d.location.rule_index);
    diags
}

fn shadow_group(
    policy: &Policy,
    rules: &[Rule],
    indexes: &[usize],
    vocab: &Vocabulary,
    chain_cap: usize,
    diags: &mut Vec<Diagnostic>,
) {
    // Per attribute position, the group's values get dense ids, and a
    // value tuple packs into one mixed-radix `u128` key, so probing an
    // ancestor combination is a binary search that hashes nothing.
    let signature = rules[indexes[0]].terms();
    let mut ids: Vec<HashMap<&str, u128>> = vec![HashMap::new(); signature.len()];
    for &i in indexes {
        for (k, t) in rules[i].terms().iter().enumerate() {
            let next = ids[k].len() as u128;
            ids[k].entry(t.value.as_str()).or_insert(next);
        }
    }
    let Some(weights) = place_values(&ids) else {
        for &i in indexes {
            if let Some(j) = find_subsumer_pairwise(i, &rules[i], indexes, rules, vocab) {
                diags.push(shadow_diagnostic(policy, rules, i, j));
            }
        }
        return;
    };
    // Per position, each value's ancestor chain (self first) as weighted
    // ids; an ancestor no rule of the group carries cannot match.
    let chain_of: Vec<HashMap<&str, Vec<u128>>> = signature
        .iter()
        .zip(&ids)
        .zip(&weights)
        .map(|((term, m), w)| {
            m.keys()
                .map(|&value| {
                    let chain = vocab
                        .ancestor_values(&term.attr, value)
                        .iter()
                        .filter_map(|a| m.get(a.as_str()).map(|id| id * w))
                        .collect();
                    (value, chain)
                })
                .collect()
        })
        .collect();
    let key_of = |rule: &Rule| -> u128 {
        rule.terms()
            .iter()
            .zip(&ids)
            .zip(&weights)
            .map(|((t, m), w)| m[t.value.as_str()] * w)
            .sum()
    };

    // Exact value tuple key → smallest rule index carrying it, sorted.
    let mut by_key: Vec<(u128, usize)> = indexes.iter().map(|&i| (key_of(&rules[i]), i)).collect();
    by_key.sort_unstable();
    by_key.dedup_by_key(|e| e.0);

    for &i in indexes {
        let rule = &rules[i];
        let chains: Vec<&[u128]> = rule
            .terms()
            .iter()
            .zip(&chain_of)
            .map(|(t, c)| c[t.value.as_str()].as_slice())
            .collect();
        let product: usize = chains
            .iter()
            .map(|c| c.len())
            .try_fold(1usize, |acc, len| acc.checked_mul(len))
            .unwrap_or(usize::MAX);
        let subsumer = if product <= chain_cap {
            find_subsumer_indexed(i, key_of(rule), &chains, &by_key)
        } else {
            find_subsumer_pairwise(i, rule, indexes, rules, vocab)
        };
        if let Some(j) = subsumer {
            diags.push(shadow_diagnostic(policy, rules, i, j));
        }
    }
}

/// Mixed-radix place values that pack one id per attribute position into
/// a `u128`, or `None` when the group's key space overflows it.
fn place_values(ids: &[HashMap<&str, u128>]) -> Option<Vec<u128>> {
    let mut radix = 1u128;
    let mut weights = Vec::with_capacity(ids.len());
    for m in ids {
        weights.push(radix);
        radix = radix.checked_mul(m.len() as u128)?;
    }
    Some(weights)
}

/// Indexed subsumer search: enumerate ancestor combinations of rule `i`'s
/// values and look each packed tuple key up. The identical tuple counts
/// only when a *different* (earlier) rule carries it — an exact
/// duplicate.
fn find_subsumer_indexed(
    i: usize,
    own: u128,
    chains: &[&[u128]],
    by_key: &[(u128, usize)],
) -> Option<usize> {
    if chains.iter().any(|c| c.is_empty()) {
        return None;
    }
    let mut best: Option<usize> = None;
    let mut cursor = vec![0usize; chains.len()];
    loop {
        let key: u128 = cursor.iter().zip(chains).map(|(&c, chain)| chain[c]).sum();
        if let Ok(pos) = by_key.binary_search_by_key(&key, |e| e.0) {
            let j = by_key[pos].1;
            let hit = if key == own { j < i } else { j != i };
            if hit && best.is_none_or(|b| j < b) {
                best = Some(j);
            }
        }
        // Advance odometer.
        let mut pos = chains.len();
        loop {
            if pos == 0 {
                return best;
            }
            pos -= 1;
            cursor[pos] += 1;
            if cursor[pos] < chains[pos].len() {
                break;
            }
            cursor[pos] = 0;
        }
    }
}

/// Fallback for rules whose ancestor-combination product exceeds the
/// cap: scan the signature group pairwise.
fn find_subsumer_pairwise(
    i: usize,
    rule: &Rule,
    indexes: &[usize],
    rules: &[Rule],
    vocab: &Vocabulary,
) -> Option<usize> {
    indexes
        .iter()
        .copied()
        .filter(|&j| j != i)
        .filter(|&j| rule_subsumes(&rules[j], rule, vocab))
        // Mutual subsumption means identical canonical tuples; keep only
        // the earlier rule as the survivor, exactly like the indexed path.
        .find(|&j| !rule_subsumes(rule, &rules[j], vocab) || j < i)
}

/// Builds the `PA001` diagnostic with a hierarchy-aware witness: per
/// differing attribute, the `narrow ⊑ broad` step that proves the
/// subsumption.
fn shadow_diagnostic(policy: &Policy, rules: &[Rule], shadowed: usize, by: usize) -> Diagnostic {
    let narrow = &rules[shadowed];
    let broad = &rules[by];
    let steps: Vec<String> = narrow
        .terms()
        .iter()
        .zip(broad.terms())
        .filter(|(n, b)| n.value != b.value)
        .map(|(n, b)| format!("{}: {} ⊑ {}", n.attr, n.value, b.value))
        .collect();
    let witness = if steps.is_empty() {
        format!("identical to rule {}: {broad}", by + 1)
    } else {
        format!("rule {}: {broad}; {}", by + 1, steps.join("; "))
    };
    Diagnostic::new(
        DiagCode::ShadowedRule,
        DiagLocation::rule(shadowed).in_policy(policy.tag()),
        format!(
            "rule is fully subsumed by rule {} — every access it grants is \
             already granted; it can be removed without changing the range",
            by + 1
        ),
    )
    .with_witness(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::StoreTag;
    use prima_vocab::samples::figure_1;

    fn ps(rules: Vec<Rule>) -> Policy {
        Policy::with_rules(StoreTag::PolicyStore, rules)
    }

    #[test]
    fn clean_policy_has_no_shadowing() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
            Rule::of(&[("data", "psychiatry"), ("authorized", "physician")]),
        ]);
        assert!(shadowing_pass(&p, &v, 4096).is_empty());
    }

    #[test]
    fn narrow_rule_shadowed_by_umbrella() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "medical"), ("authorized", "medical-staff")]),
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
        ]);
        let diags = shadowing_pass(&p, &v, 4096);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::ShadowedRule);
        assert_eq!(diags[0].location.rule_index, Some(1));
        let witness = diags[0].witness.as_deref().unwrap();
        assert!(witness.contains("referral ⊑ medical"), "{witness}");
        assert!(witness.contains("nurse ⊑ medical-staff"), "{witness}");
    }

    #[test]
    fn exact_duplicate_flags_the_later_rule() {
        let v = figure_1();
        let r = Rule::of(&[("data", "referral"), ("authorized", "nurse")]);
        let p = Policy::with_rules(StoreTag::PolicyStore, vec![r.clone(), r]);
        let diags = shadowing_pass(&p, &v, 4096);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location.rule_index, Some(1));
        assert!(diags[0].witness.as_deref().unwrap().contains("identical"));
    }

    #[test]
    fn different_attribute_sets_never_shadow() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "medical")]),
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
        ]);
        assert!(shadowing_pass(&p, &v, 4096).is_empty());
    }

    #[test]
    fn fallback_pairwise_agrees_with_indexed() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "medical"), ("authorized", "medical-staff")]),
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
            Rule::of(&[("data", "demographic"), ("authorized", "clerk")]),
        ]);
        let indexed = shadowing_pass(&p, &v, 4096);
        let pairwise = shadowing_pass(&p, &v, 0); // cap 0 forces fallback
        assert_eq!(indexed, pairwise);
        assert_eq!(indexed.len(), 1);
    }

    #[test]
    fn out_of_vocabulary_values_only_shadow_exact_copies() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "free-text-blob")]),
            Rule::of(&[("data", "free-text-blob")]),
            Rule::of(&[("data", "other-blob")]),
        ]);
        let diags = shadowing_pass(&p, &v, 4096);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location.rule_index, Some(1));
    }
}
