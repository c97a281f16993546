//! The experiment implementations (one module per `EXPERIMENTS.md` entry).
//!
//! Every experiment declares its grid as a [`SweepSpec`](crate::sweep::SweepSpec),
//! runs it through the engine via [`RunCtx::sweep`](crate::RunCtx::sweep)
//! (one simulation per cell, seeded from the cell's grid coordinates), and
//! derives its table and findings from the per-group aggregates.

pub mod e10_clock_drift;
pub mod e11_sync_overhead;
pub mod e12_vs_synchronous;
pub mod e13_known_n;
pub mod e14_crash_churn;
pub mod e15_partitions;
pub mod e16_scaling;
pub mod e17_adversary;
pub mod e18_reorder_sync;
pub mod e19_benor;
pub mod e1_messages;
pub mod e20_brb;
pub mod e21_antientropy;
pub mod e22_churn_sync;
pub mod e2_time;
pub mod e3_activation;
pub mod e4_baselines;
pub mod e5_retransmission;
pub mod e6_theorem1;
pub mod e7_abd_violations;
pub mod e8_adaptive_ablation;
pub mod e9_delay_robustness;

use abe_election::{RingConfig, Substrate};
use abe_stats::Online;

use crate::sweep::Group;
use crate::RunCtx;

/// Standard ring configuration used across election experiments:
/// exponential delay with mean `delta`. Carries the context's shard count
/// so `--shards N` applies to every election sweep uniformly (reports are
/// shard-invariant; see `abe_core::shard`).
pub(crate) fn ring(ctx: &RunCtx, n: u32, delta: f64, seed: u64) -> RingConfig {
    RingConfig::new(n)
        .delay(std::sync::Arc::new(
            abe_core::delay::Exponential::from_mean(delta).expect("valid delta"),
        ))
        .seed(seed)
        .shards(ctx.shards)
}

/// Pulls the standard election aggregates out of one sweep group,
/// asserting every run in it elected exactly one leader.
///
/// Returns `(messages, time)` accumulators.
pub(crate) fn election_stats(group: &Group<'_>) -> (Online, Online) {
    let leaders = group.online("leaders");
    assert_eq!(
        leaders.mean(),
        1.0,
        "every run must elect exactly one leader ({})",
        group.label()
    );
    (group.online("messages"), group.online("time"))
}
