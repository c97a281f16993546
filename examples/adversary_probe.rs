//! Adversary probe: how much can a *legal* ABE adversary slow the
//! election?
//!
//! Definition 1 lets an adversary choose every message delay, constrained
//! only by a known bound δ on each channel's **expected** delay. This
//! example runs the calibrated §3 election under the four strategies of
//! `abe-adversary`, all pinned to the *same* budget as the oblivious
//! baseline (δ = 1), and prints what each one achieves:
//!
//! * `swap` replaces the exponential with a heavy-tailed Pareto of equal
//!   mean — family choice alone;
//! * `burst` banks near-zero delays and spends the whole accumulated
//!   allowance in one hit;
//! * `reorder` alternates instant and double-budget delays per edge,
//!   systematically inverting delivery order;
//! * `adaptive` reads the narrow protocol view and dumps every banked
//!   allowance onto messages heading for hot nodes — the election's
//!   token-holders and wake-up candidates.
//!
//! Every run prints its `BudgetAuditor` verdict: the max per-edge
//! empirical delay mean (never above δ) and the clamp count. The lesson
//! mirrors experiment e17: adversaries that *waste* budget on knocked-out
//! passive chains can even speed the election up, while targeting the
//! token-holders stretches it — yet the expected-complexity bound keeps
//! every legal strategy within a constant factor.
//!
//! Run with:
//!
//! ```console
//! $ cargo run --example adversary_probe
//! ```

use std::sync::Arc;

use abe_networks::adversary::{Burst, Reorder, Swap, TargetHeat};
use abe_networks::core::delay::Pareto;
use abe_networks::core::AdversaryPlan;
use abe_networks::election::{run_abe_calibrated, RingConfig, Substrate};

const N: u32 = 32;
const BUDGET: f64 = 1.0;
const SEEDS: u64 = 20;

fn plan(name: &str) -> AdversaryPlan {
    match name {
        "none" => AdversaryPlan::none(),
        "swap" => AdversaryPlan::new(
            BUDGET,
            Swap::new(Arc::new(Pareto::from_mean(2.5, BUDGET).expect("valid"))),
        )
        .expect("valid budget"),
        "burst" => AdversaryPlan::new(BUDGET, Burst::new(0.05)).expect("valid budget"),
        "reorder" => AdversaryPlan::new(BUDGET, Reorder::new()).expect("valid budget"),
        _ => AdversaryPlan::new(BUDGET, TargetHeat::new()).expect("valid budget"),
    }
}

fn main() {
    println!("ring n = {N}, budget δ = {BUDGET}, {SEEDS} seeds per strategy\n");
    println!(
        "{:>9}  {:>10}  {:>10}  {:>13}  {:>8}",
        "strategy", "time", "messages", "max edge mean", "clamped"
    );
    let mut baseline_time = 0.0;
    for name in ["none", "swap", "burst", "reorder", "adaptive"] {
        let (mut time, mut messages, mut max_mean, mut clamped) = (0.0, 0u64, 0.0f64, 0u64);
        for seed in 0..SEEDS {
            let cfg = RingConfig::new(N).seed(seed).adversary(plan(name));
            let o = run_abe_calibrated(&cfg, 1.0);
            assert_eq!(o.leaders, 1, "elections stay correct under adversaries");
            assert_eq!(o.report.adversary.violations, 0, "legal executions only");
            time += o.time / SEEDS as f64;
            messages += o.messages;
            max_mean = max_mean.max(o.report.adversary.max_edge_mean);
            clamped += o.report.adversary.clamped;
        }
        if name == "none" {
            baseline_time = time;
        }
        println!(
            "{:>9}  {:>6.1} ({:.2}x)  {:>8.1}  {:>13.4}  {:>8}",
            name,
            time,
            time / baseline_time,
            messages as f64 / SEEDS as f64,
            max_mean,
            clamped
        );
    }
    println!(
        "\nevery per-edge empirical mean stayed ≤ δ = {BUDGET}: the adversaries pick\n\
         *which* legal ABE execution happens, and the election survives them all."
    );
}
