//! The paper's worked examples, run at set-up by every workload: a build
//! that gets them wrong is not worth timing.

use crate::report::Outcome;
use prima_audit::AuditStore;
use prima_core::{PrimaSystem, ReviewMode};
use prima_model::compute_coverage;
use prima_model::samples::{figure_3_audit_policy, figure_3_policy_store};
use prima_vocab::samples::figure_1;
use prima_workload::fixtures::table_1;

/// Figure 3 gives 50 %; Table 1 gives 30 % and mines exactly
/// `Referral:Registration:Nurse`.
pub fn paper_examples(out: &mut Outcome) {
    let vocab = figure_1();
    let fig3 = compute_coverage(&figure_3_policy_store(), &figure_3_audit_policy(), &vocab)
        .map(|r| r.percent());
    out.check(matches!(fig3, Ok(p) if (p - 50.0).abs() < 1e-9), || {
        format!("Figure 3 coverage is {fig3:?}, want 50%")
    });

    let mut system = PrimaSystem::new(vocab, figure_3_policy_store());
    let store = AuditStore::new("table-1");
    let loaded = store.append_all(&table_1()).is_ok() && system.attach_store(store).is_ok();
    let before = system.entry_coverage().percent();
    out.check(loaded && (before - 30.0).abs() < 1e-9, || {
        format!("Table 1 coverage is {before}%, want 30%")
    });
    let round = system.run_round(ReviewMode::AutoAccept);
    let mined: Vec<String> = system
        .review()
        .candidates()
        .iter()
        .map(|c| c.pattern.compact(&["data", "purpose", "authorized"]))
        .collect();
    out.check(
        round.is_ok() && mined == ["referral:registration:nurse"],
        || format!("Table 1 mined {mined:?}, want [referral:registration:nurse]"),
    );
}
