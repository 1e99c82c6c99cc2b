//! # prima-vocab — the privacy policy vocabulary
//!
//! A *privacy policy vocabulary* (Section 3 of the paper) is the mapping from
//! the terms used in a policy specification notation to the artifacts the IT
//! system manipulates. Concretely, it is a set of per-attribute concept
//! taxonomies: the `data` attribute has a taxonomy of data categories
//! (`demographic` subsuming `address`, `gender`, …), the `purpose` attribute a
//! taxonomy of purposes (`administering-healthcare` subsuming `treatment`,
//! `billing`, …), and the `authorized` attribute a taxonomy of roles.
//!
//! The vocabulary is what makes the paper's formal model operational:
//!
//! * a `RuleTerm`'s value is **ground** iff it is a leaf of (or absent from)
//!   the taxonomy of its attribute, and **composite** otherwise
//!   (Definition 2);
//! * the special set `RT'` of ground terms derivable from a composite term is
//!   the set of leaves below the term's concept (Definition 3);
//! * term equivalence (Definition 4) holds iff the `RT'` sets of two terms
//!   share an element, which for taxonomies reduces to an ancestor/descendant
//!   (subsumption) check.
//!
//! The crate provides:
//!
//! * [`Taxonomy`] — a single attribute's concept forest with subsumption,
//!   leaf enumeration, and depth/fan-out statistics;
//! * [`Vocabulary`] — the per-attribute collection with a builder API,
//!   a compact indented text format, and serde (JSON) support;
//! * [`samples`] — the paper's Figure 1 sample vocabulary and the richer
//!   hospital vocabulary used by the clinical workload simulator;
//! * [`synthetic`] — parameterized random-shape vocabularies for the
//!   scalability experiments (E9 in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concept;
pub mod error;
pub mod parse;
pub mod samples;
pub mod synthetic;
pub mod taxonomy;
pub mod vocabulary;

pub use concept::{Concept, ConceptId};
pub use error::VocabError;
pub use taxonomy::Taxonomy;
pub use vocabulary::{Vocabulary, VocabularyBuilder};

/// Canonical attribute name for the data-category dimension of a rule.
pub const ATTR_DATA: &str = "data";
/// Canonical attribute name for the purpose dimension of a rule.
pub const ATTR_PURPOSE: &str = "purpose";
/// Canonical attribute name for the authorization-category (role) dimension.
pub const ATTR_AUTHORIZED: &str = "authorized";

/// Normalizes an attribute or concept name to its canonical form.
///
/// The paper's examples mix capitalisations (`Referral` in Table 1,
/// `referral` in the prose). Matching is therefore performed on the
/// lower-cased, whitespace-trimmed form, with internal whitespace and
/// underscores collapsed to single `-`. Distinct words remain distinct:
/// `doctor` and `physician` do **not** normalize to each other (see
/// `EXPERIMENTS.md` §E3 for why this matters for reproducing Table 1's
/// 30 % coverage).
pub fn normalize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_was_sep = true; // trim leading separators
    for ch in name.trim().chars() {
        if ch.is_whitespace() || ch == '_' {
            if !last_was_sep {
                out.push('-');
                last_was_sep = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_was_sep = false;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// True iff [`normalize`] maps `name` to the empty string, decided without
/// allocating: every character is whitespace, `_` or `-` (separators are
/// dropped and trailing `-` trimmed, so nothing else survives).
pub fn normalizes_empty(name: &str) -> bool {
    name.chars()
        .all(|c| c.is_whitespace() || c == '_' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_trims() {
        assert_eq!(normalize("  Referral "), "referral");
        assert_eq!(normalize("Date Of Birth"), "date-of-birth");
        assert_eq!(normalize("lab_result"), "lab-result");
    }

    #[test]
    fn normalize_keeps_distinct_words_distinct() {
        assert_ne!(normalize("Doctor"), normalize("Physician"));
    }

    #[test]
    fn normalize_collapses_internal_runs() {
        assert_eq!(normalize("a  \t b"), "a-b");
        assert_eq!(normalize("__a__b__"), "a-b");
    }

    #[test]
    fn normalize_empty_is_empty() {
        assert_eq!(normalize("   "), "");
    }

    #[test]
    fn normalizes_empty_agrees_with_normalize() {
        for name in [
            "", "  ", "\t_ ", "-", "_-_", " - ", "a", " a ", "-a", "a-", "_x_", "Ä", "\u{a0}",
        ] {
            assert_eq!(
                normalizes_empty(name),
                normalize(name).is_empty(),
                "{name:?}"
            );
        }
    }
}
