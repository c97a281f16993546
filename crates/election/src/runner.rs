//! Convenience runners: one call from ring configuration to election
//! outcome, with deterministic seeding and safety budgets.
//!
//! The experiment harness and integration tests both go through these, so
//! measurement conventions (what counts as "time", when a run is considered
//! terminated) live in exactly one place.

use abe_core::fault::OutcomeClass;
use abe_core::{NetworkReport, Protocol, RunRecorder, RunSpec, Substrate, Topology};
use abe_sim::SeedStream;
use rand::RngExt;

use crate::abe::AbeElection;
use crate::chang_roberts::ChangRoberts;
use crate::fixed::FixedActivation;
use crate::itai_rodeh::ItaiRodeh;
use crate::peterson::Peterson;
use crate::state::ElectionState;

/// Ring orientation for an election run.
///
/// The election algorithms circulate tokens on out-port 0, which is the
/// successor edge in both orientations; a bidirectional ring adds the
/// reverse edges (doubling the channel population and changing how fault
/// partitions cut the graph) without changing the election's logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingKind {
    /// The paper's topology: `0 → 1 → … → n−1 → 0`.
    Unidirectional,
    /// Both orientations of every ring edge.
    Bidirectional,
}

/// Configuration of one ring-election run.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Ring size `n ≥ 1`.
    pub n: u32,
    /// Ring orientation (defaults to the paper's unidirectional ring).
    pub kind: RingKind,
    /// The run substrate, set through the [`Substrate`] setters. A
    /// recording budget lands on [`ElectionOutcome::telemetry`].
    pub run: RunSpec,
}

impl RingConfig {
    /// A ring of size `n` on the default [`RunSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "ring size must be at least 1");
        Self {
            n,
            kind: RingKind::Unidirectional,
            run: RunSpec::new(),
        }
    }

    /// Sets the ring orientation.
    pub fn kind(mut self, kind: RingKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builds the ring with one protocol per node, runs it, and counts the
    /// nodes for which `is_leader` holds.
    fn elect<P>(&self, node: impl FnMut(usize) -> P, is_leader: fn(&P) -> bool) -> ElectionOutcome
    where
        P: Protocol + Clone + Send,
        P::Message: Send,
    {
        let topo = match self.kind {
            RingKind::Unidirectional => Topology::unidirectional_ring(self.n),
            RingKind::Bidirectional => Topology::bidirectional_ring(self.n),
        }
        .expect("n >= 1 was validated");
        let net = self
            .run
            .network(topo)
            .build(node)
            .expect("ring configuration is structurally valid");
        let (report, net, telemetry) = self.run.run(net);
        let leaders = net.protocols().filter(|p| is_leader(p)).count();
        ElectionOutcome {
            terminated: report.outcome.is_stopped(),
            leaders,
            messages: report.messages_sent,
            time: report.end_time.as_secs(),
            ticks: report.ticks,
            report,
            telemetry,
        }
    }
}

impl Substrate for RingConfig {
    fn spec_mut(&mut self) -> &mut RunSpec {
        &mut self.run
    }
}

/// Measured outcome of one election run.
#[derive(Debug, Clone)]
pub struct ElectionOutcome {
    /// Whether a leader was elected within the event budget.
    pub terminated: bool,
    /// Number of nodes in the leader state (1 when correct).
    pub leaders: usize,
    /// Total messages sent.
    pub messages: u64,
    /// Virtual time at election (seconds).
    pub time: f64,
    /// Local clock ticks dispatched.
    pub ticks: u64,
    /// The full network report (counters etc.).
    pub report: NetworkReport,
    /// Captured telemetry, when [`Substrate::record`] enabled recording:
    /// retained trace records, seen/dropped counts, optional histograms.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl ElectionOutcome {
    /// Classifies the run for fault experiments:
    ///
    /// * exactly one leader → [`OutcomeClass::Completed`];
    /// * no leader → [`OutcomeClass::Stalled`] (the run quiesced or hit
    ///   its budget with every surviving token consumed);
    /// * more than one leader → [`OutcomeClass::WrongLeader`] (a safety
    ///   violation — only reachable under faults).
    pub fn class(&self) -> OutcomeClass {
        match self.leaders {
            1 => OutcomeClass::Completed,
            0 => OutcomeClass::Stalled,
            _ => OutcomeClass::WrongLeader,
        }
    }
}

/// Runs the paper's §3 algorithm with activation parameter `a0`.
///
/// # Panics
///
/// Panics if `a0` is outside `(0, 1)` (configuration error in the caller).
pub fn run_abe(cfg: &RingConfig, a0: f64) -> ElectionOutcome {
    cfg.elect(
        |_| AbeElection::new(cfg.n, a0).expect("a0 validated by caller"),
        |p| p.state() == ElectionState::Leader,
    )
}

/// Runs the paper's §3 algorithm with `A0 = a / n²`, the calibration under
/// which the linear time/message bounds hold (see
/// [`AbeElection::calibrated`]).
///
/// # Panics
///
/// Panics if `a` is not finite and positive.
pub fn run_abe_calibrated(cfg: &RingConfig, a: f64) -> ElectionOutcome {
    cfg.elect(
        |_| AbeElection::calibrated(cfg.n, a).expect("a validated by caller"),
        |p| p.state() == ElectionState::Leader,
    )
}

/// Runs the fixed-activation ablation with constant probability `a0`.
///
/// # Panics
///
/// Panics if `a0` is outside `(0, 1)`.
pub fn run_fixed(cfg: &RingConfig, a0: f64) -> ElectionOutcome {
    cfg.elect(
        |_| FixedActivation::new(cfg.n, a0).expect("a0 validated by caller"),
        |p| p.state() == ElectionState::Leader,
    )
}

/// Runs Itai–Rodeh (anonymous asynchronous baseline).
pub fn run_itai_rodeh(cfg: &RingConfig) -> ElectionOutcome {
    cfg.elect(
        |_| ItaiRodeh::new(cfg.n).expect("n >= 1 was validated"),
        ItaiRodeh::is_leader,
    )
}

/// Runs Chang–Roberts with a random unique-identity assignment derived
/// from the config seed.
pub fn run_chang_roberts(cfg: &RingConfig) -> ElectionOutcome {
    let ids = random_permutation(cfg.n, cfg.run.seed);
    cfg.elect(|i| ChangRoberts::new(ids[i]), ChangRoberts::is_leader)
}

/// Runs Peterson's algorithm with a random unique-identity assignment
/// derived from the config seed.
pub fn run_peterson(cfg: &RingConfig) -> ElectionOutcome {
    let ids = random_permutation(cfg.n, cfg.run.seed);
    cfg.elect(|i| Peterson::new(ids[i]), Peterson::is_leader)
}

/// A uniformly random permutation of `1..=n` (Fisher–Yates) used as the
/// identity assignment for identity-based baselines.
pub fn random_permutation(n: u32, seed: u64) -> Vec<u64> {
    let mut rng = SeedStream::new(seed).stream("identities", 0);
    let mut ids: Vec<u64> = (1..=u64::from(n)).collect();
    for i in (1..ids.len()).rev() {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_core::fault::FaultPlan;

    #[test]
    fn all_runners_elect_exactly_one_leader() {
        let cfg = RingConfig::new(8).seed(5);
        for outcome in [
            run_abe(&cfg, 0.3),
            run_fixed(&cfg, 0.3),
            run_itai_rodeh(&cfg),
            run_chang_roberts(&cfg),
            run_peterson(&cfg),
        ] {
            assert!(outcome.terminated);
            assert_eq!(outcome.leaders, 1);
            assert!(outcome.messages >= 1);
            assert!(outcome.time > 0.0);
        }
    }

    #[test]
    fn outcome_reflects_report() {
        let cfg = RingConfig::new(4).seed(1);
        let o = run_abe(&cfg, 0.5);
        assert_eq!(o.messages, o.report.messages_sent);
        assert_eq!(o.time, o.report.end_time.as_secs());
    }

    #[test]
    fn permutation_is_a_permutation() {
        for seed in 0..5 {
            let mut ids = random_permutation(20, seed);
            ids.sort_unstable();
            assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn permutation_differs_across_seeds() {
        assert_ne!(random_permutation(20, 0), random_permutation(20, 1));
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = RingConfig::new(16).seed(9);
        let a = run_abe(&cfg, 0.3);
        let b = run_abe(&cfg, 0.3);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn fifo_flag_changes_executions() {
        let base = RingConfig::new(16).seed(3);
        let fifo = RingConfig::new(16).seed(3).fifo(true);
        let a = run_itai_rodeh(&base);
        let b = run_itai_rodeh(&fifo);
        // Same seed, different delivery discipline: outcomes are both
        // correct; the executions usually differ in message count or time.
        assert_eq!(a.leaders, 1);
        assert_eq!(b.leaders, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ring_panics() {
        let _ = RingConfig::new(0);
    }

    #[test]
    fn empty_fault_plan_leaves_runs_bit_identical() {
        let plain = RingConfig::new(16).seed(21);
        let faulted = RingConfig::new(16).seed(21).fault(FaultPlan::new());
        let a = run_abe_calibrated(&plain, 1.0);
        let b = run_abe_calibrated(&faulted, 1.0);
        assert_eq!(a.report, b.report);
        assert_eq!(a.leaders, b.leaders);
    }

    #[test]
    fn bidirectional_ring_still_elects() {
        let cfg = RingConfig::new(8).seed(5).kind(RingKind::Bidirectional);
        let o = run_abe_calibrated(&cfg, 1.0);
        assert_eq!(o.class(), OutcomeClass::Completed);
        assert_eq!(o.leaders, 1);
    }

    #[test]
    fn outcome_class_tracks_leader_count() {
        let cfg = RingConfig::new(8).seed(5);
        let mut o = run_abe(&cfg, 0.3);
        assert_eq!(o.class(), OutcomeClass::Completed);
        o.leaders = 0;
        assert_eq!(o.class(), OutcomeClass::Stalled);
        o.leaders = 2;
        assert_eq!(o.class(), OutcomeClass::WrongLeader);
    }

    #[test]
    fn sharded_runs_match_sequential_for_every_runner() {
        // Election runs end in a stop request, which the sharded kernel
        // reproduces via exact single-stepping or sequential fallback —
        // either way the report must be identical.
        let base = RingConfig::new(12).seed(4);
        let sharded = RingConfig::new(12).seed(4).shards(3);
        let pairs = [
            (run_abe(&base, 0.3), run_abe(&sharded, 0.3)),
            (run_itai_rodeh(&base), run_itai_rodeh(&sharded)),
            (run_chang_roberts(&base), run_chang_roberts(&sharded)),
            (run_peterson(&base), run_peterson(&sharded)),
        ];
        for (seq, par) in pairs {
            assert_eq!(seq.report, par.report);
            assert_eq!(seq.leaders, par.leaders);
        }
    }

    #[test]
    fn max_time_horizon_caps_the_run() {
        let cfg = RingConfig::new(8).seed(2).max_time(0.5);
        let o = run_abe_calibrated(&cfg, 1.0);
        // The election needs more than half a second of virtual time; the
        // horizon cuts it off.
        assert!(!o.terminated);
        assert!(o.time <= 0.5);
        assert_eq!(o.report.outcome, abe_sim::RunOutcome::MaxTime);
    }

    #[test]
    fn crash_stop_on_a_ring_stalls_the_election() {
        // A permanently dead node breaks the unidirectional ring: every
        // token eventually dies at it, no leader can complete a lap.
        let cfg = RingConfig::new(8)
            .seed(3)
            .fault(FaultPlan::new().crash_stop(4, 0.0))
            .max_events(50_000);
        let o = run_abe_calibrated(&cfg, 1.0);
        assert_eq!(o.class(), OutcomeClass::Stalled);
        assert!(!o.terminated);
        assert!(o.report.faults.crashes >= 1);
    }

    #[test]
    fn elections_often_survive_crash_recover_churn() {
        // Lost tokens are regenerated by idle nodes waking up, so short
        // outages usually delay — not kill — the election.
        let completed = (0..20)
            .filter(|&seed| {
                let plan = FaultPlan::churn(16, 2, 32.0, 4.0, seed);
                let cfg = RingConfig::new(16)
                    .seed(seed)
                    .fault(plan)
                    .max_events(50_000);
                run_abe_calibrated(&cfg, 1.0).class() == OutcomeClass::Completed
            })
            .count();
        assert!(completed >= 10, "only {completed}/20 runs completed");
    }
}
