//! Driving the HDB middleware with simulated clinical staff.
//!
//! `prima-workload` synthesizes audit *entries*; this module synthesizes
//! *requests* and pushes them through the real Active Enforcement +
//! Compliance Auditing stack, so the trail PRIMA refines was produced by
//! the same code path a deployment would use (Figure 4, with no shortcuts).

use prima_hdb::{AccessMode, AccessRequest, ControlCenter, HdbError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request shape staff issue, with a relative frequency.
#[derive(Debug, Clone)]
pub struct ClinicProfile {
    /// The requester's role (users are synthesized as `role-NN`).
    pub role: String,
    /// Declared purpose.
    pub purpose: String,
    /// Target table.
    pub table: String,
    /// Requested columns.
    pub columns: Vec<String>,
    /// Regular (purpose chosen) or break-the-glass.
    pub mode: AccessMode,
    /// Relative weight among the profiles.
    pub weight: f64,
}

impl ClinicProfile {
    /// A regular-flow profile.
    pub fn regular(role: &str, purpose: &str, table: &str, columns: &[&str], weight: f64) -> Self {
        Self {
            role: role.into(),
            purpose: purpose.into(),
            table: table.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            mode: AccessMode::Chosen,
            weight,
        }
    }

    /// A break-the-glass profile (an informal workflow).
    pub fn break_the_glass(
        role: &str,
        purpose: &str,
        table: &str,
        columns: &[&str],
        weight: f64,
    ) -> Self {
        Self {
            mode: AccessMode::BreakTheGlass,
            ..Self::regular(role, purpose, table, columns, weight)
        }
    }
}

/// What a clinic run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClinicReport {
    /// Requests issued.
    pub requests: usize,
    /// Served through the regular flow.
    pub served: usize,
    /// Fully denied by policy.
    pub denied: usize,
    /// Served via break-the-glass.
    pub exceptions: usize,
}

/// Issues `n` requests against the control center, drawing profiles by
/// weight, with `staff_per_role` distinct users per role and timestamps
/// starting at `start_time`. Deterministic for a given seed.
pub fn run_clinic(
    cc: &ControlCenter,
    profiles: &[ClinicProfile],
    n: usize,
    seed: u64,
    staff_per_role: usize,
    start_time: i64,
) -> Result<ClinicReport, HdbError> {
    assert!(!profiles.is_empty(), "at least one profile required");
    let mut rng = StdRng::seed_from_u64(seed);
    let total_weight: f64 = profiles.iter().map(|p| p.weight).sum();
    let mut report = ClinicReport::default();
    let mut time = start_time;

    for _ in 0..n {
        time += rng.gen_range(1..=60);
        // Weighted profile choice.
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut profile = &profiles[0];
        for p in profiles {
            if pick < p.weight {
                profile = p;
                break;
            }
            pick -= p.weight;
            profile = p;
        }
        let user = format!(
            "{}-{:02}",
            profile.role,
            rng.gen_range(0..staff_per_role.max(1))
        );
        let request = AccessRequest {
            user,
            role: profile.role.clone(),
            purpose: profile.purpose.clone(),
            table: profile.table.clone(),
            columns: profile.columns.clone(),
            filter: None,
            mode: profile.mode,
            time,
        };
        report.requests += 1;
        match cc.query(&request) {
            Ok(_) if profile.mode == AccessMode::BreakTheGlass => report.exceptions += 1,
            Ok(_) => report.served += 1,
            Err(HdbError::PolicyDenied { .. }) => report.denied += 1,
            Err(other) => return Err(other),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{PrimaSystem, ReviewMode};
    use prima_vocab::samples::figure_1;

    fn control_center() -> ControlCenter {
        let mut cc = ControlCenter::new(figure_1(), "patient");
        let (encounters, mappings) = prima_hdb::clinical::generate_encounters(50);
        let maps: Vec<(&str, &str)> = mappings
            .iter()
            .map(|(c, k)| (c.as_str(), k.as_str()))
            .collect();
        cc.register_table(encounters, &maps).unwrap();
        cc.define_rule("general-care", "treatment", "nurse")
            .unwrap();
        cc.define_rule("demographic", "billing", "clerk").unwrap();
        cc
    }

    fn profiles() -> Vec<ClinicProfile> {
        vec![
            ClinicProfile::regular("nurse", "treatment", "encounters", &["referral"], 6.0),
            ClinicProfile::break_the_glass(
                "nurse",
                "registration",
                "encounters",
                &["referral"],
                2.0,
            ),
            // Clerks keep trying something policy denies.
            ClinicProfile::regular("clerk", "billing", "encounters", &["referral"], 1.0),
        ]
    }

    #[test]
    fn clinic_is_deterministic_and_classified() {
        let cc = control_center();
        let a = run_clinic(&cc, &profiles(), 300, 5, 6, 0).unwrap();
        assert_eq!(a.requests, 300);
        assert_eq!(a.served + a.denied + a.exceptions, 300);
        assert!(a.served > a.exceptions);
        assert!(a.denied > 0, "{a:?}");

        let cc2 = control_center();
        let b = run_clinic(&cc2, &profiles(), 300, 5, 6, 0).unwrap();
        assert_eq!(a, b, "same seed, same outcome");
    }

    #[test]
    fn middleware_trail_feeds_prima_end_to_end() {
        let cc = control_center();
        run_clinic(&cc, &profiles(), 400, 9, 6, 0).unwrap();

        // The audit store was written by Compliance Auditing, not by the
        // simulator; PRIMA refines it identically.
        let mut prima = PrimaSystem::new(figure_1(), cc.policy().clone());
        prima
            .attach_store(cc.audit_store().clone())
            .expect("unique source name");
        let record = prima.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(record.practice_entries > 0);
        assert_eq!(record.rules_added, 1);
        let rule = &prima.policy().rules()[prima.policy().cardinality() - 1];
        assert_eq!(rule.value_of("purpose"), Some("registration"));
        assert_eq!(rule.value_of("data"), Some("referral"));
    }

    #[test]
    fn blank_purpose_query_leaves_the_trail_groundable() {
        let mut cc = control_center();
        // A rule naming the old `invalid` probe sentinel must not turn a
        // blank purpose into a served request.
        cc.define_rule("referral", "invalid", "nurse").unwrap();
        run_clinic(&cc, &profiles(), 50, 3, 6, 0).unwrap();
        let logged = cc.audit_store().len();
        for req in [
            AccessRequest::chosen(900, "tim", "nurse", "  ", "encounters", &["referral"]),
            AccessRequest::break_the_glass(901, "mark", "nurse", "  ", "encounters", &["referral"]),
        ] {
            assert!(cc.query(&req).is_err(), "{req:?}");
        }
        assert_eq!(
            cc.audit_store().len(),
            logged,
            "nothing ungroundable is written"
        );

        let mut prima = PrimaSystem::new(figure_1(), cc.policy().clone());
        prima
            .attach_store(cc.audit_store().clone())
            .expect("unique source name");
        assert_eq!(prima.entry_coverage().total_entries, logged);
        prima.run_round(ReviewMode::AutoAccept).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn empty_profiles_panic() {
        let cc = control_center();
        let _ = run_clinic(&cc, &[], 1, 1, 1, 0);
    }
}
