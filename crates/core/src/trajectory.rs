//! The closed refinement loop (experiment E4 / Figure 2).
//!
//! Each round: simulate a period of clinical operation against the
//! *current* policy, refine, fold accepted rules back in, and re-simulate.
//! A workflow that has become policy no longer needs the exception
//! mechanism — its entries turn regular — so coverage climbs round over
//! round toward the floor set by genuine violations, which must never be
//! absorbed. This is exactly the gap-closing picture of Figure 2, as a
//! measurable series.

use crate::system::{PrimaSystem, ReviewMode};
use prima_audit::AuditStore;
use prima_mining::MiningError;
use prima_model::PolicyMatcher;
use prima_workload::sim::{entries as strip_labels, SimConfig, Simulator};
use prima_workload::{PracticeCluster, Scenario};

/// Parameters of a trajectory run.
#[derive(Debug, Clone)]
pub struct TrajectoryConfig {
    /// Refinement rounds to run.
    pub rounds: usize,
    /// Entries simulated per round.
    pub entries_per_round: usize,
    /// Base RNG seed (round `i` uses `seed + i`).
    pub seed: u64,
    /// Share of informal-practice entries while a cluster is uncovered.
    pub informal_share: f64,
    /// Share of violation entries (the coverage floor is
    /// `1 − violation_share`).
    pub violation_share: f64,
    /// Mining threshold `f` as a share of the round's expected *practice*
    /// pool (the exception entries Algorithm 3 keeps), with a floor of 5
    /// (Algorithm 4's default). A fixed `f = 5` on a 20k-entry trail finds
    /// even the rarest cluster in round 1; a pool-relative threshold
    /// reproduces the gradual absorption the paper envisions — dominant
    /// workflows first, rare ones in later rounds once the pool
    /// concentrates on them.
    pub min_frequency_share: f64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        Self {
            rounds: 6,
            entries_per_round: 5_000,
            seed: 7,
            informal_share: 0.20,
            violation_share: 0.02,
            min_frequency_share: 0.05,
        }
    }
}

/// One point of the coverage trajectory.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// 1-based round number.
    pub round: usize,
    /// Entry-weighted coverage of this round's trail *before* refinement.
    pub entry_coverage: f64,
    /// Set-based coverage of this round's trail before refinement.
    pub set_coverage: f64,
    /// Informal clusters still uncovered when the round started.
    pub open_clusters: usize,
    /// Rules accepted this round.
    pub rules_added: usize,
    /// Policy cardinality after the round.
    pub policy_cardinality: usize,
}

/// Runs the closed loop on a scenario, returning the per-round series.
pub fn run_trajectory(
    scenario: &Scenario,
    config: &TrajectoryConfig,
) -> Result<Vec<TrajectoryPoint>, MiningError> {
    let mut system = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone());
    let mut points = Vec::with_capacity(config.rounds);

    for round in 1..=config.rounds {
        // Clusters already absorbed into policy run through the regular
        // flow now; only the still-uncovered ones break the glass.
        let matcher = PolicyMatcher::new(system.policy(), &scenario.vocab);
        let open: Vec<PracticeCluster> = scenario
            .clusters
            .iter()
            .filter(|c| !matcher.covers(&c.to_ground_rule()))
            .cloned()
            .collect();
        let open_count = open.len();

        let sim = Simulator::new(
            scenario.vocab.clone(),
            system.policy().clone(),
            open.clone(),
        );
        // Each cluster's exception rate is a property of that workflow;
        // absorbing one cluster must not inflate the rest. Scale the
        // round's informal share by the weight still open.
        let total_weight: f64 = scenario.clusters.iter().map(|c| c.weight).sum();
        let open_weight: f64 = open.iter().map(|c| c.weight).sum();
        let informal_share = if total_weight > 0.0 {
            config.informal_share * open_weight / total_weight
        } else {
            0.0
        };
        let sim_config = SimConfig {
            seed: config.seed + round as u64,
            n_entries: config.entries_per_round,
            informal_share,
            violation_share: config.violation_share,
            start_time: (round as i64 - 1) * 1_000_000,
            ..SimConfig::default()
        };
        let trail = sim.generate(&sim_config);

        // Fresh store per round: the round's coverage measures *this
        // period's* practice, which is how Figure 2's x-axis reads.
        let practice_estimate =
            (informal_share + config.violation_share) * config.entries_per_round as f64;
        let f = ((practice_estimate * config.min_frequency_share) as usize).max(5);
        let miner = prima_mining::SqlMiner::new(prima_mining::MinerConfig {
            min_frequency: f,
            ..prima_mining::MinerConfig::default()
        });
        let mut round_system = PrimaSystem::new(scenario.vocab.clone(), system.policy().clone())
            .with_miner(Box::new(miner));
        let store = AuditStore::new(&format!("round-{round}"));
        store
            .append_all(&strip_labels(&trail))
            .expect("simulated entries conform to the audit schema");
        round_system
            .attach_store(store)
            .expect("unique source name");

        let entry_cov = round_system.entry_coverage().ratio();
        let set_cov = round_system
            .coverage()
            .map(|r| r.ratio())
            .unwrap_or(f64::NAN);
        let record = round_system.run_round(ReviewMode::AutoAccept)?;

        points.push(TrajectoryPoint {
            round,
            entry_coverage: entry_cov,
            set_coverage: set_cov,
            open_clusters: open_count,
            rules_added: record.rules_added,
            policy_cardinality: record.policy_cardinality,
        });

        // Carry the refined policy forward.
        system = PrimaSystem::new(scenario.vocab.clone(), round_system.policy().clone());
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_climbs_and_clusters_close() {
        let scenario = Scenario::community_hospital();
        let config = TrajectoryConfig {
            rounds: 4,
            entries_per_round: 4_000,
            ..TrajectoryConfig::default()
        };
        let points = run_trajectory(&scenario, &config).unwrap();
        assert_eq!(points.len(), 4);

        // Round 1 starts with every cluster open and coverage well below 1.
        assert_eq!(points[0].open_clusters, scenario.clusters.len());
        assert!(points[0].entry_coverage < 0.9);

        // Monotone (within noise): later rounds never lose ground.
        for w in points.windows(2) {
            assert!(
                w[1].entry_coverage >= w[0].entry_coverage - 0.02,
                "coverage must not regress: {points:?}"
            );
            assert!(w[1].open_clusters <= w[0].open_clusters);
        }

        // By the end the frequent clusters are absorbed and coverage sits
        // near the violation floor.
        let last = points.last().unwrap();
        assert!(
            last.entry_coverage > 1.0 - config.violation_share - 0.05,
            "final coverage {last:?}"
        );
        assert!(last.policy_cardinality > scenario.policy.cardinality());
    }

    #[test]
    fn zero_rounds_is_empty() {
        let scenario = Scenario::paper_example();
        let config = TrajectoryConfig {
            rounds: 0,
            ..TrajectoryConfig::default()
        };
        assert!(run_trajectory(&scenario, &config).unwrap().is_empty());
    }
}
