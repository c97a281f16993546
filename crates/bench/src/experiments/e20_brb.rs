//! E20 — Byzantine reliable broadcast: delivery latency and message
//! complexity vs fault budget and crash churn.
//!
//! Bracha's echo/ready quorums buy totality (one correct delivery drags
//! every correct node along) at a quadratic message price that grows with
//! the declared budget `f` — larger `f` means larger quorums, so later
//! deliveries and more amplification traffic *even when nobody actually
//! fails*. This experiment measures that resilience tax on a fixed `K_n`
//! under the ABE oblivious baseline, then stresses the same grid with
//! crash churn to see when quorums become unreachable and runs stall.
//!
//! Safety is part of the measurement: the `agreement_violation` and
//! `validity_violation` indicators must be 0 in every cell — churn may
//! starve a quorum (a stall, recorded as data) but a wrong or conflicting
//! delivery is a bug.

use abe_consensus::{run_brb, ConsensusConfig, Substrate};
use abe_core::fault::FaultPlan;
use abe_sim::SeedStream;
use abe_stats::{fmt_num, Table};

use crate::sweep::{CellMetrics, SweepSpec};
use crate::{ExperimentReport, RunCtx};

/// Expected delay bound δ (exponential mean on every edge).
pub const DELTA: f64 = 1.0;
/// The payload node 0 floods in every run.
pub const PAYLOAD: u32 = 0xB10C;
/// Outage length of one churn event, in units of δ.
pub const DOWNTIME: f64 = 6.0;
/// Window the churn events are spread over: broadcast on `K_n` completes
/// in a handful of δ, so outages land while quorums are still forming.
pub const HORIZON: f64 = 12.0;
/// Event budget: stalled runs go quiescent on their own (every message is
/// sent at most once), but churn restarts can bounce for a while.
pub const MAX_EVENTS: u64 = 400_000;

/// Runs E20.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let n: u32 = ctx.scale.pick3(7, 10, 13);
    let fs: &[u32] = ctx
        .scale
        .pick3(&[0, 2][..], &[0, 1, 2, 3][..], &[0, 1, 2, 3, 4][..]);
    let churn: &[u32] = ctx
        .scale
        .pick3(&[0, 2][..], &[0, 2, 4][..], &[0, 2, 4, 8][..]);
    let reps = ctx.scale.pick3(3, 10, 40);

    let spec = SweepSpec::new()
        .axis_u32("f", fs)
        .axis_u32("churn", churn)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let f = cell.u32("f");
        let plan = FaultPlan::churn(
            n,
            cell.u32("churn"),
            HORIZON * DELTA,
            DOWNTIME * DELTA,
            SeedStream::new(cell.seed()).child_seed("churn-plan", 0),
        );
        let cfg = ConsensusConfig::new(n, f)
            .seed(cell.seed())
            .fault(plan)
            .max_events(MAX_EVENTS)
            .shards(ctx.shards);
        let o = run_brb(&cfg, PAYLOAD);
        CellMetrics::new().with_brb(&o).with_faults(&o.report)
    });

    let base = outcome
        .group_at(&[("f", 0), ("churn", 0)])
        .expect("baseline group");
    let widest = outcome
        .group_at(&[("f", fs.len() - 1), ("churn", 0)])
        .expect("widest fault-free group");
    let latency_tax = widest.mean("latency") / base.mean("latency");
    let message_tax = widest.mean("messages") / base.mean("messages");

    let mut table = Table::new(&[
        "f",
        "churn",
        "delivered rate",
        "latency (mean)",
        "messages (mean)",
        "stalled rate",
        "agreement viol.",
        "validity viol.",
    ]);
    let mut total_agreement_violations = 0.0f64;
    let mut total_validity_violations = 0.0f64;
    let mut worst_stall_rate = 0.0f64;
    for group in outcome.groups() {
        let viol_total = |metric: &str| {
            let o = group.online(metric);
            o.mean() * o.count() as f64
        };
        let agreement = viol_total("agreement_violation");
        let validity = viol_total("validity_violation");
        total_agreement_violations += agreement;
        total_validity_violations += validity;
        let stalled = group.mean("stalled");
        worst_stall_rate = worst_stall_rate.max(stalled);
        // Survivor-only latency: stalls never set the metric, and group
        // aggregation skips cells missing one, so the mean is over
        // delivering runs. An all-stalled group has no latency samples.
        let latency = group.online("latency");
        table.row(&[
            group.value("f").to_string(),
            group.value("churn").to_string(),
            format!("{:.2}", group.mean("decided")),
            if latency.count() > 0 {
                fmt_num(latency.mean())
            } else {
                "-".to_string()
            },
            fmt_num(group.mean("messages")),
            format!("{stalled:.2}"),
            fmt_num(agreement),
            fmt_num(validity),
        ]);
    }

    let findings = vec![
        format!(
            "zero safety violations across the grid: {} agreement and {} validity \
             violations in any cell — crash churn starves echo/ready quorums into \
             stalls, but no node ever delivers a wrong or conflicting payload",
            fmt_num(total_agreement_violations),
            fmt_num(total_validity_violations)
        ),
        format!(
            "the resilience tax is paid up front: raising the declared budget from \
             f = 0 to f = {} on a fault-free K_{n} inflates delivery latency \
             {latency_tax:.2}x and message volume {message_tax:.2}x — quorum sizes, \
             not actual failures, set the price",
            fs[fs.len() - 1]
        ),
        format!(
            "under churn the failure mode is starvation, never corruption: the \
             worst per-group stall rate is {worst_stall_rate:.2}, and every stalled \
             run went quiescent with fewer than n - f deliveries rather than \
             mis-delivering"
        ),
        format!(
            "parameters: n = {n}, f in {fs:?} (all within n > 3f), churn in \
             {churn:?} crash/restart events over a {HORIZON}δ window with {DOWNTIME}δ \
             outages, δ = {DELTA}, payload {PAYLOAD:#x}, {reps} seeds per point"
        ),
    ];

    ExperimentReport {
        id: "E20",
        title: "Reliable broadcast: the price of resilience under churn",
        claim: "Bracha's quorums keep broadcast safe under every ABE schedule and \
                crash pattern; the declared fault budget — not actual faults — sets \
                the latency and message cost, and churn can only starve, never \
                corrupt, delivery",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_safe_and_delivers_when_fault_free() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E20");
        // 2 fault budgets × 2 churn levels × 3 seeds.
        assert_eq!(report.sweep.cells.len(), 2 * 2 * 3);
        for cell in &report.sweep.cells {
            let label = cell.cell.label();
            assert_eq!(
                cell.metrics.get("agreement_violation"),
                Some(0.0),
                "{label}"
            );
            assert_eq!(cell.metrics.get("validity_violation"), Some(0.0), "{label}");
            let decided = cell.metrics.get("decided").unwrap();
            let stalled = cell.metrics.get("stalled").unwrap();
            assert_eq!(decided + stalled, 1.0, "{label}: exactly one class");
            if cell.cell.u32("churn") == 0 {
                assert_eq!(decided, 1.0, "{label}: fault-free runs deliver");
                assert_eq!(cell.metrics.get("delivered_nodes"), Some(7.0), "{label}");
                assert!(cell.metrics.get("latency").unwrap() > 0.0, "{label}");
            }
            if decided == 1.0 {
                assert!(cell.metrics.get("latency").is_some(), "{label}");
            } else {
                // Stalled cells may or may not have partial deliveries;
                // either way the delivered count is below quorum.
                let n = 7.0;
                let f = f64::from(cell.cell.u32("f"));
                assert!(
                    cell.metrics.get("delivered_nodes").unwrap() < n - f,
                    "{label}"
                );
            }
        }
    }
}
