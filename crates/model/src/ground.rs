//! [`GroundRule`] — a rule all of whose terms are ground, in canonical form.
//!
//! `Range` sets (Definition 8) are sets of ground rules, and coverage
//! (Definition 9) intersects them under rule equivalence (Definition 6).
//! For ground rules with one term per attribute, Definition 6's equivalence
//! (equal cardinality + every term equivalent to some term of the other
//! rule) degenerates to equality of the canonically-sorted term lists,
//! because a ground term is equivalent only to itself. `GroundRule`
//! therefore derives `Eq`/`Hash` on its canonical form and set operations
//! use plain hashing.

use crate::error::ModelError;
use crate::term::RuleTerm;
use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A canonical ground rule: terms sorted by attribute, one term per
/// attribute, every term ground with respect to the vocabulary under which
/// it was produced.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroundRule {
    terms: Vec<RuleTerm>,
}

impl GroundRule {
    /// Builds a ground rule from terms, canonicalizing order.
    ///
    /// # Errors
    /// [`ModelError::EmptyRule`] for zero terms,
    /// [`ModelError::DuplicateAttribute`] if an attribute repeats.
    pub fn new(mut terms: Vec<RuleTerm>) -> Result<Self, ModelError> {
        if terms.is_empty() {
            return Err(ModelError::EmptyRule);
        }
        terms.sort();
        for w in terms.windows(2) {
            if w[0].attr == w[1].attr {
                return Err(ModelError::DuplicateAttribute {
                    attr: w[0].attr.clone(),
                });
            }
        }
        Ok(Self { terms })
    }

    /// The `(data, purpose, authorized)` access every layer decides on: an
    /// audit entry, an enforcement request, a served decision. This is the
    /// one checked way to build it.
    ///
    /// # Errors
    /// [`ModelError::EmptyTerm`] if any value is empty after normalization.
    pub fn access(data: &str, purpose: &str, authorized: &str) -> Result<Self, ModelError> {
        Self::new(vec![
            RuleTerm::new(ATTR_DATA, data)?,
            RuleTerm::new(ATTR_PURPOSE, purpose)?,
            RuleTerm::new(ATTR_AUTHORIZED, authorized)?,
        ])
    }

    /// Convenience constructor from `(attr, value)` string pairs; panics on
    /// invalid input. Intended for fixtures and tests.
    pub fn of(pairs: &[(&str, &str)]) -> Self {
        let terms = pairs
            .iter()
            .map(|(a, v)| RuleTerm::of(a, v))
            .collect::<Vec<_>>();
        Self::new(terms).expect("static ground rule must be well-formed")
    }

    /// The canonical (attribute-sorted) terms.
    pub fn terms(&self) -> &[RuleTerm] {
        &self.terms
    }

    /// `#R` — the rule's cardinality (Definition 5).
    pub fn cardinality(&self) -> usize {
        self.terms.len()
    }

    /// The value assigned to `attr`, if present.
    pub fn value_of(&self, attr: &str) -> Option<&str> {
        let attr = prima_vocab::normalize(attr);
        self.terms
            .iter()
            .find(|t| t.attr == attr)
            .map(|t| t.value.as_str())
    }

    /// The attributes assigned by this rule, in canonical order.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(|t| t.attr.as_str())
    }

    /// Compact `value:value:…` rendering in the order of the supplied
    /// attributes — the shape the paper prints patterns in
    /// (`Referral : Registration : Nurse`). Missing attributes render as
    /// `_`.
    pub fn compact(&self, attr_order: &[&str]) -> String {
        attr_order
            .iter()
            .map(|a| self.value_of(a).unwrap_or("_"))
            .collect::<Vec<_>>()
            .join(":")
    }
}

impl fmt::Display for GroundRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_attribute_sorted() {
        let a = GroundRule::of(&[
            ("purpose", "billing"),
            ("data", "insurance"),
            ("authorized", "nurse"),
        ]);
        let b = GroundRule::of(&[
            ("authorized", "nurse"),
            ("purpose", "billing"),
            ("data", "insurance"),
        ]);
        assert_eq!(a, b, "term order must not matter");
        assert_eq!(
            a.attrs().collect::<Vec<_>>(),
            vec!["authorized", "data", "purpose"]
        );
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = GroundRule::new(vec![
            RuleTerm::of("data", "address"),
            RuleTerm::of("data", "gender"),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicateAttribute {
                attr: "data".into()
            }
        );
    }

    #[test]
    fn access_is_the_canonical_three_field_rule() {
        let g = GroundRule::access("Referral", "Registration", "Nurse").unwrap();
        assert_eq!(
            g,
            GroundRule::of(&[
                ("data", "referral"),
                ("purpose", "registration"),
                ("authorized", "nurse"),
            ])
        );
        assert_eq!(
            GroundRule::access("referral", "  ", "nurse"),
            Err(ModelError::EmptyTerm)
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(GroundRule::new(vec![]), Err(ModelError::EmptyRule));
    }

    #[test]
    fn cardinality_and_lookup() {
        let g = GroundRule::of(&[("data", "referral"), ("purpose", "registration")]);
        assert_eq!(g.cardinality(), 2);
        assert_eq!(g.value_of("data"), Some("referral"));
        assert_eq!(g.value_of("Purpose"), Some("registration"));
        assert_eq!(g.value_of("authorized"), None);
    }

    #[test]
    fn compact_rendering_matches_paper_shape() {
        let g = GroundRule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]);
        assert_eq!(
            g.compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
        assert_eq!(g.compact(&["data", "missing"]), "referral:_");
    }

    #[test]
    fn display_renders_conjunction() {
        let g = GroundRule::of(&[("data", "insurance"), ("purpose", "billing")]);
        assert_eq!(g.to_string(), "{(data, insurance) ∧ (purpose, billing)}");
    }

    #[test]
    fn hash_set_membership_is_equivalence_for_ground_rules() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(GroundRule::of(&[
            ("data", "Address"),
            ("purpose", "Billing"),
        ]));
        assert!(s.contains(&GroundRule::of(&[
            ("purpose", "billing"),
            ("data", "address")
        ])));
        assert!(!s.contains(&GroundRule::of(&[
            ("purpose", "billing"),
            ("data", "gender")
        ])));
    }
}
