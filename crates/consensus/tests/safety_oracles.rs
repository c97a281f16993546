//! Standing safety oracles for the consensus crate: **agreement**,
//! **validity**, **integrity**, and **totality**, asserted over
//! proptest-driven grids of delay model × crash churn × adversary budget.
//!
//! The contract mirrors the campaign and shard-equivalence oracles that
//! gate determinism today:
//!
//! * a **violation** (two nodes deciding differently, a decision nobody
//!   proposed, a node deciding twice) is a *hard failure* under any fault
//!   plan and any legal adversary — scheduling and crash-churn may attack
//!   liveness, never safety;
//! * a **stall** is acceptable only when churn can actually starve a
//!   quorum; fault-free runs must decide (`totality`), and every stalled
//!   run must be *classified* as such, not mis-reported.
//!
//! Every grid point also re-checks the budget auditor: an adversarial
//! consensus run must remain a legal ABE execution (zero un-clamped
//! budget violations), exactly as e17/e19 assert for elections.

use std::sync::Arc;

use proptest::prelude::*;

use abe_adversary::{Burst, Reorder, Swap, TargetHeat};
use abe_consensus::{
    run_benor, run_brb, run_bv, BrbOutcome, BvOutcome, ConsensusConfig, ConsensusOutcome,
    InputAssignment, Substrate,
};
use abe_core::adversary::AdversaryPlan;
use abe_core::delay::{Deterministic, Exponential, Pareto, SharedDelay, Uniform};
use abe_core::fault::{FaultPlan, OutcomeClass};

/// The delay regimes the grids draw from: zero lookahead (exponential),
/// positive lookahead (uniform), and tie-heavy (deterministic).
fn delay_strategy() -> impl Strategy<Value = SharedDelay> {
    prop_oneof![
        Just(Arc::new(Exponential::from_mean(1.0).expect("valid")) as SharedDelay),
        Just(Arc::new(Uniform::new(0.5, 1.5).expect("valid")) as SharedDelay),
        Just(Arc::new(Deterministic::new(1.0).expect("valid")) as SharedDelay),
    ]
}

/// Builds the adversary plan for one grid point (index into the e17/e19
/// strategy vocabulary; 0 = oblivious baseline).
fn plan_for(strategy: usize, budget: f64) -> AdversaryPlan {
    match strategy {
        0 => AdversaryPlan::none(),
        1 => AdversaryPlan::new(
            budget,
            Swap::new(Arc::new(
                Pareto::from_mean(2.5, budget).expect("valid mean"),
            )),
        )
        .expect("valid budget"),
        2 => AdversaryPlan::new(budget, Burst::new(0.05)).expect("valid budget"),
        3 => AdversaryPlan::new(budget, Reorder::new()).expect("valid budget"),
        _ => AdversaryPlan::new(budget, TargetHeat::new()).expect("valid budget"),
    }
}

fn grid_config(
    n: u32,
    f: u32,
    seed: u64,
    delay: SharedDelay,
    churn_events: u32,
    strategy: usize,
    budget: f64,
) -> ConsensusConfig {
    let mut cfg = ConsensusConfig::new(n, f)
        .seed(seed)
        .delay(delay)
        .adversary(plan_for(strategy, budget))
        .max_events(400_000);
    if churn_events > 0 {
        cfg = cfg.fault(FaultPlan::churn(n, churn_events, 30.0, 6.0, seed));
    }
    cfg
}

/// Agreement + validity + integrity for a Ben-Or run; returns the class
/// so callers can add liveness expectations.
fn assert_benor_safe(o: &ConsensusOutcome, what: &str) -> OutcomeClass {
    let decided: Vec<bool> = o.decisions.iter().flatten().copied().collect();
    // Agreement: no two decided values differ.
    assert!(
        decided.windows(2).all(|w| w[0] == w[1]),
        "{what}: agreement violation — decisions {:?}",
        o.decisions
    );
    // Validity: every decision is some node's input.
    assert!(
        decided.iter().all(|v| o.inputs.contains(v)),
        "{what}: validity violation — decided {:?} with inputs {:?}",
        decided,
        o.inputs
    );
    // Integrity: no node decides twice.
    assert!(
        o.decide_events.iter().all(|&e| e <= 1),
        "{what}: integrity violation — decide events {:?}",
        o.decide_events
    );
    let class = o.class();
    assert!(!class.is_violation(), "{what}: classified {class}");
    // The auditor proves the schedule was legal whenever one was active.
    assert_eq!(
        o.report.adversary.violations, 0,
        "{what}: adversary budget violations"
    );
    class
}

/// Agreement + validity + integrity for a reliable-broadcast run.
fn assert_brb_safe(o: &BrbOutcome, what: &str) -> OutcomeClass {
    let delivered: Vec<u32> = o.delivered.iter().flatten().copied().collect();
    assert!(
        delivered.windows(2).all(|w| w[0] == w[1]),
        "{what}: agreement violation — deliveries {:?}",
        o.delivered
    );
    assert!(
        delivered.iter().all(|&v| v == o.payload),
        "{what}: validity violation — delivered {:?}, broadcast {}",
        delivered,
        o.payload
    );
    assert!(!o.mismatched, "{what}: conflicting payloads observed");
    assert!(
        o.deliver_events.iter().all(|&e| e <= 1),
        "{what}: integrity violation — deliver events {:?}",
        o.deliver_events
    );
    let class = o.class();
    assert!(!class.is_violation(), "{what}: classified {class}");
    assert_eq!(
        o.report.adversary.violations, 0,
        "{what}: adversary budget violations"
    );
    class
}

/// Validity (+ crash-free set agreement) for a BV-broadcast run.
fn assert_bv_safe(o: &BvOutcome, what: &str) -> OutcomeClass {
    for (i, &(has_false, has_true)) in o.bin_values.iter().enumerate() {
        assert!(
            !has_false || o.inputs.contains(&false),
            "{what}: node {i} binned false which nobody input"
        );
        assert!(
            !has_true || o.inputs.contains(&true),
            "{what}: node {i} binned true which nobody input"
        );
    }
    let class = o.class();
    assert!(!class.is_violation(), "{what}: classified {class}");
    class
}

#[test]
fn fault_free_benor_always_decides_totally() {
    // Totality drill across the full strategy × budget × input grid: with
    // no crashes every node must decide, under every legal adversary.
    for strategy in 0..5 {
        for &budget in &[1.0, 4.0] {
            for (s, inputs) in [
                InputAssignment::Unanimous(true),
                InputAssignment::Unanimous(false),
                InputAssignment::Split,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = (strategy * 100 + s) as u64;
                let cfg = ConsensusConfig::new(7, 2)
                    .seed(seed)
                    .adversary(plan_for(strategy, budget))
                    .max_events(400_000);
                let o = run_benor(&cfg, inputs);
                let what = format!("benor strategy={strategy} budget={budget} inputs={inputs:?}");
                assert_eq!(
                    assert_benor_safe(&o, &what),
                    OutcomeClass::Decided,
                    "{what}"
                );
                assert_eq!(o.decided_count(), 7, "{what}: totality");
            }
        }
    }
}

#[test]
fn fault_free_brb_always_delivers_totally() {
    for strategy in 0..5 {
        for &budget in &[1.0, 4.0] {
            let seed = strategy as u64;
            let cfg = ConsensusConfig::new(7, 2)
                .seed(seed)
                .adversary(plan_for(strategy, budget))
                .max_events(400_000);
            let o = run_brb(&cfg, 424_242);
            let what = format!("brb strategy={strategy} budget={budget}");
            assert_eq!(assert_brb_safe(&o, &what), OutcomeClass::Decided, "{what}");
            assert_eq!(o.delivered_count(), 7, "{what}: totality");
        }
    }
}

#[test]
fn unanimity_survives_churn_without_validity_violations() {
    // Strong validity under crashes: with unanimous inputs, *any* decided
    // value other than the common input would be a validity violation —
    // the class() path must catch it, and it must never happen.
    for seed in 0..12 {
        let cfg = grid_config(
            9,
            2,
            seed,
            Arc::new(Exponential::from_mean(1.0).expect("valid")),
            3,
            0,
            1.0,
        );
        let o = run_benor(&cfg, InputAssignment::Unanimous(true));
        let class = assert_benor_safe(&o, &format!("unanimous churn seed {seed}"));
        assert!(
            class == OutcomeClass::Decided || class == OutcomeClass::Stalled,
            "seed {seed}: {class}"
        );
        assert!(
            o.decisions.iter().flatten().all(|&v| v),
            "seed {seed}: a node decided false under unanimous-true inputs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ben-Or across the full grid: any delay model, any churn level, any
    /// strategy × budget — safety holds unconditionally, and fault-free
    /// runs decide.
    #[test]
    fn benor_safety_oracles_hold_across_the_grid(
        n in 4u32..10,
        seed in 0u64..1_000,
        delay in delay_strategy(),
        churn_events in 0u32..3,
        strategy in 0usize..5,
        budget in 1.0f64..8.0,
        unanimous in any::<bool>(),
    ) {
        let f = (n - 1) / 3;
        let inputs = if unanimous {
            InputAssignment::Unanimous(true)
        } else {
            InputAssignment::Split
        };
        let cfg = grid_config(n, f, seed, delay, churn_events, strategy, budget);
        let o = run_benor(&cfg, inputs);
        let what = format!(
            "benor n={n} seed={seed} churn={churn_events} strategy={strategy} budget={budget:.2}"
        );
        let class = assert_benor_safe(&o, &what);
        if churn_events == 0 {
            prop_assert_eq!(class, OutcomeClass::Decided, "{}: fault-free must decide", what);
            prop_assert_eq!(o.decided_count(), n, "{}: totality", what);
        } else {
            prop_assert!(
                class == OutcomeClass::Decided || class == OutcomeClass::Stalled,
                "{}: {}", what, class
            );
        }
    }

    /// Reliable broadcast across the same grid: delivered payloads are
    /// consistent and authentic under every regime; fault-free runs
    /// deliver everywhere.
    #[test]
    fn brb_safety_oracles_hold_across_the_grid(
        n in 4u32..12,
        seed in 0u64..1_000,
        delay in delay_strategy(),
        churn_events in 0u32..3,
        strategy in 0usize..5,
        budget in 1.0f64..8.0,
        payload in any::<u32>(),
    ) {
        let f = (n - 1) / 3;
        let cfg = grid_config(n, f, seed, delay, churn_events, strategy, budget);
        let o = run_brb(&cfg, payload);
        let what = format!(
            "brb n={n} seed={seed} churn={churn_events} strategy={strategy} budget={budget:.2}"
        );
        let class = assert_brb_safe(&o, &what);
        if churn_events == 0 {
            prop_assert_eq!(class, OutcomeClass::Decided, "{}: fault-free must deliver", what);
            prop_assert_eq!(o.delivered_count(), n, "{}: totality", what);
        }
    }

    /// BV-broadcast: binned values always trace back to inputs; crash-free
    /// quiescent runs agree on the set exactly.
    #[test]
    fn bv_safety_oracles_hold_across_the_grid(
        n in 4u32..12,
        seed in 0u64..1_000,
        delay in delay_strategy(),
        churn_events in 0u32..3,
        unanimous in any::<bool>(),
    ) {
        let f = (n - 1) / 3;
        let inputs = if unanimous {
            InputAssignment::Unanimous(false)
        } else {
            InputAssignment::Split
        };
        let cfg = grid_config(n, f, seed, delay, churn_events, 0, 1.0);
        let o = run_bv(&cfg, inputs);
        let what = format!("bv n={n} seed={seed} churn={churn_events}");
        let class = assert_bv_safe(&o, &what);
        if churn_events == 0 {
            prop_assert_eq!(class, OutcomeClass::Decided, "{}: fault-free must fill", what);
            prop_assert!(
                o.bin_values.windows(2).all(|w| w[0] == w[1]),
                "{}: crash-free bin_values sets diverge", what
            );
        }
    }

    /// The whole outcome — report, decisions, rounds — is a pure function
    /// of the configuration: re-running any grid point reproduces it
    /// bit-identically (the property `--threads`/`--shards` invariance
    /// builds on).
    #[test]
    fn benor_outcomes_are_reproducible(
        n in 4u32..9,
        seed in 0u64..1_000,
        delay in delay_strategy(),
        churn_events in 0u32..3,
    ) {
        let f = (n - 1) / 3;
        let cfg = grid_config(n, f, seed, delay, churn_events, 0, 1.0);
        let a = run_benor(&cfg, InputAssignment::Split);
        let b = run_benor(&cfg, InputAssignment::Split);
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.decide_events, b.decide_events);
    }
}
