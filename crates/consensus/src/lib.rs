//! # abe-consensus — randomized consensus on complete ABE networks
//!
//! The paper's Definition-1 model — delays chosen adversarially but
//! bounded in expectation — is exactly the regime where randomized
//! consensus lives: Ben-Or's protocol terminates with probability 1 under
//! *any* admissible schedule, and the ABE expectation bound is what lets
//! us measure **how fast** empirically (experiments `e19`/`e20` in
//! `abe-bench`). This crate supplies the protocols and their
//! safety-classified runners on the unchanged `abe-core` engine:
//!
//! * [`BenOr`] — Ben-Or binary consensus (crash model, `n > 2f`), coin
//!   flips drawn from a dedicated per-node
//!   [`SeedStream`](abe_sim::SeedStream) child so runs stay bit-identical
//!   at any `--threads`/`--shards` setting;
//! * [`Brb`] — Bracha-style Byzantine Reliable Broadcast (echo/ready
//!   quorums, `n > 3f`);
//! * [`BvBroadcast`] — BV-broadcast, the binary-value flood underneath
//!   signature-free Byzantine consensus (`n > 3f`);
//! * [`runner`] — [`ConsensusConfig`] (the complete-graph analogue of
//!   `abe_election::RingConfig`) plus one-call runners whose outcomes
//!   classify as [`Decided`](abe_core::fault::OutcomeClass::Decided) /
//!   [`Stalled`](abe_core::fault::OutcomeClass::Stalled) /
//!   [`AgreementViolation`](abe_core::fault::OutcomeClass::AgreementViolation) /
//!   [`ValidityViolation`](abe_core::fault::OutcomeClass::ValidityViolation).
//!
//! The standing **safety-oracle suite** in `tests/safety_oracles.rs`
//! asserts agreement, validity, integrity, and totality over
//! proptest-driven grids of delay model × crash churn × adversary budget:
//! a violation class is a hard failure under *any* fault or budget, while
//! stalls are merely classified.
//!
//! ## Example
//!
//! ```
//! use abe_consensus::{run_benor, ConsensusConfig, InputAssignment, Substrate};
//! use abe_core::fault::OutcomeClass;
//!
//! let cfg = ConsensusConfig::new(7, 2).seed(11);
//! let outcome = run_benor(&cfg, InputAssignment::Split);
//! assert_eq!(outcome.class(), OutcomeClass::Decided);
//! // Everyone who decided agrees, and the value was someone's input.
//! let decisions: Vec<bool> = outcome.decisions.iter().flatten().copied().collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benor;
pub mod brb;
pub mod bv;
pub mod runner;

pub use abe_core::Substrate;
pub use benor::{BenOr, BenOrMsg, COIN_DOMAIN};
pub use brb::{Brb, BrbMsg};
pub use bv::{BvBroadcast, BvMsg};
pub use runner::{
    default_faulty, run_benor, run_brb, run_bv, BrbOutcome, BvOutcome, ConsensusConfig,
    ConsensusOutcome, InputAssignment,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use abe_core::delay::Uniform;
    use abe_core::fault::{FaultPlan, OutcomeClass};
    use abe_core::{Recording, RunRecorder, TraceEvent};

    use super::*;

    #[test]
    fn unanimous_benor_decides_the_common_input_in_round_one() {
        for value in [false, true] {
            let cfg = ConsensusConfig::new(5, 1).seed(3);
            let o = run_benor(&cfg, InputAssignment::Unanimous(value));
            assert_eq!(o.class(), OutcomeClass::Decided);
            assert_eq!(o.decided_count(), 5);
            assert!(o.decisions.iter().all(|d| *d == Some(value)));
            assert_eq!(o.max_round(), 1, "unanimity must decide without a coin");
            assert_eq!(o.report.counter("benor_coin_flips"), 0);
        }
    }

    #[test]
    fn split_benor_decides_a_single_proposed_value() {
        for seed in 0..8 {
            let cfg = ConsensusConfig::new(6, 2).seed(seed);
            let o = run_benor(&cfg, InputAssignment::Split);
            assert_eq!(o.class(), OutcomeClass::Decided, "seed {seed}");
            let decided: Vec<bool> = o.decisions.iter().flatten().copied().collect();
            assert!(decided.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
            assert!(o.inputs.contains(&decided[0]), "seed {seed}");
            assert!(o.decide_events.iter().all(|&e| e <= 1), "seed {seed}");
        }
    }

    #[test]
    fn benor_is_deterministic_for_a_fixed_seed() {
        let cfg = ConsensusConfig::new(7, 2).seed(42);
        let a = run_benor(&cfg, InputAssignment::Split);
        let b = run_benor(&cfg, InputAssignment::Split);
        assert_eq!(a.report, b.report);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn singleton_network_decides_its_own_input() {
        let cfg = ConsensusConfig::new(1, 0);
        let o = run_benor(&cfg, InputAssignment::Unanimous(true));
        assert_eq!(o.class(), OutcomeClass::Decided);
        assert_eq!(o.decisions, vec![Some(true)]);
    }

    #[test]
    fn brb_delivers_the_broadcast_payload_everywhere() {
        let cfg = ConsensusConfig::new(7, 2).seed(5);
        let o = run_brb(&cfg, 0xC0FFEE);
        assert_eq!(o.class(), OutcomeClass::Decided);
        assert_eq!(o.delivered_count(), 7);
        assert!(o.delivered.iter().all(|d| *d == Some(0xC0FFEE)));
        assert!(o.latency().expect("delivered") > 0.0);
        assert!(o.deliver_events.iter().all(|&e| e == 1));
        assert_eq!(o.report.counter("brb_delivered"), 7);
    }

    #[test]
    fn brb_under_heavy_churn_stalls_but_never_lies() {
        // Crash half the network early: delivery may be impossible, but a
        // wrong payload never appears.
        let mut decided = 0;
        for seed in 0..10 {
            let plan = FaultPlan::churn(6, 4, 8.0, 50.0, seed);
            let cfg = ConsensusConfig::new(6, 1).seed(seed).fault(plan);
            let o = run_brb(&cfg, 77);
            let class = o.class();
            assert!(
                class == OutcomeClass::Decided || class == OutcomeClass::Stalled,
                "seed {seed}: {class}"
            );
            assert!(o.delivered.iter().flatten().all(|&v| v == 77));
            if class == OutcomeClass::Decided {
                decided += 1;
            }
        }
        // The grid is tuned so both classes actually occur.
        assert!(decided < 10, "churn never stalled a run");
    }

    #[test]
    fn bv_broadcast_converges_on_the_input_set() {
        let cfg = ConsensusConfig::new(7, 2)
            .seed(9)
            .delay(Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")));
        let o = run_bv(&cfg, InputAssignment::Split);
        assert_eq!(o.class(), OutcomeClass::Decided);
        // Crash-free quiescent run: every node binned the same set, and
        // with 3 odd + 4 even inputs both bits clear the 2f+1 = 5 bar
        // only if enough senders vouch — at minimum the set is non-empty
        // and identical everywhere.
        assert!(o.bin_values.windows(2).all(|w| w[0] == w[1]));
        assert!(o.bin_values[0].0 || o.bin_values[0].1);
    }

    #[test]
    fn bv_unanimous_bins_exactly_the_single_input() {
        let cfg = ConsensusConfig::new(4, 1).seed(2);
        let o = run_bv(&cfg, InputAssignment::Unanimous(true));
        assert_eq!(o.class(), OutcomeClass::Decided);
        assert!(o.bin_values.iter().all(|&set| set == (false, true)));
    }

    #[test]
    fn brb_and_bv_hand_back_their_recorder() {
        let plain = ConsensusConfig::new(4, 1).seed(6);
        let recorded = plain.clone().record(Recording::full());
        let delivers = |rec: Option<Box<RunRecorder>>| {
            rec.expect("recording on")
                .records()
                .filter(|r| matches!(r.event, TraceEvent::Deliver { .. }))
                .count()
        };

        let (a, b) = (run_brb(&plain, 7), run_brb(&recorded, 7));
        assert!(a.telemetry.is_none());
        assert_eq!(a.report, b.report);
        assert!(delivers(b.telemetry) > 0);

        let split = InputAssignment::Split;
        let (a, b) = (run_bv(&plain, split), run_bv(&recorded, split));
        assert!(a.telemetry.is_none());
        assert_eq!(a.report, b.report);
        assert!(delivers(b.telemetry) > 0);
    }

    #[test]
    fn default_faulty_respects_the_byzantine_bound() {
        for n in 1..64 {
            let f = default_faulty(n);
            assert!(n > 3 * f, "n={n} f={f}");
            assert!(n <= 3 * (f + 1), "n={n} f={f} not maximal");
        }
    }

    #[test]
    #[should_panic(expected = "n > 2f")]
    fn benor_rejects_insufficient_resilience() {
        let cfg = ConsensusConfig::new(4, 2);
        let _ = run_benor(&cfg, InputAssignment::Split);
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn brb_rejects_insufficient_resilience() {
        let cfg = ConsensusConfig::new(6, 2);
        let _ = run_brb(&cfg, 1);
    }
}
