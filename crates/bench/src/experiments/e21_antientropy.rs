//! E21 — anti-entropy state sync: convergence time and wire bytes vs
//! network size, divergence fraction, and delay family.
//!
//! The repo's first *data-plane* workload: replicas reconcile keyed
//! versioned state by gossiping Merkle-style digests (root hashes, then
//! subtree hashes on mismatch, then leaf ranges on divergence). Under
//! Definition 1 the model promises only an *expected* delay bound δ per
//! edge, so the natural questions are how many δ-paced gossip rounds
//! convergence costs as `n` grows, and — the point of digest trees —
//! whether the bytes on the wire scale with the *divergence* rather than
//! the state size. The key space is held constant across the whole grid
//! precisely so the bytes axis can only respond to divergence.
//!
//! Three delay families with the same mean δ (exponential, uniform,
//! deterministic) share the grid: Definition 1 constrains expectations
//! only, so families at equal expected delay should land close — the
//! data-plane analogue of e9's robustness result.
//!
//! Convergence is part of the measurement: every cell carries the
//! `converged`/`residual_divergence` indicators, which must be 1 and 0
//! in every fault-free cell under every family.

use std::sync::Arc;

use abe_core::delay::{Deterministic, Exponential, SharedDelay, Uniform};
use abe_statesync::{run_antientropy, Substrate, SyncConfig};
use abe_stats::{fit_line, fmt_num, Table};

use crate::sweep::{CellMetrics, SweepSpec};
use crate::{ExperimentReport, RunCtx};

/// Expected delay bound δ (every family is calibrated to this mean).
pub const DELTA: f64 = 1.0;
/// Key universe size — constant across the whole grid, so wire bytes can
/// only track the divergence axis, never the state size.
pub const KEY_SPACE: u32 = 256;
/// Nominal wire size of one shipped entry (key + version + payload).
pub const ENTRY_BYTES: u64 = 20;
/// The delay-family axis (all at expected delay [`DELTA`]).
pub const FAMILIES: [&str; 3] = ["exp", "uniform", "det"];

/// The delay model of one family, calibrated to mean [`DELTA`].
pub fn delay_for(family: &str) -> SharedDelay {
    match family {
        "exp" => Arc::new(Exponential::from_mean(DELTA).expect("valid mean")),
        "uniform" => Arc::new(Uniform::new(0.5 * DELTA, 1.5 * DELTA).expect("valid bounds")),
        "det" => Arc::new(Deterministic::new(DELTA).expect("valid value")),
        other => panic!("unknown delay family {other}"),
    }
}

/// Runs E21.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let ns: &[u32] = ctx
        .scale
        .pick3(&[4, 8][..], &[4, 8, 16][..], &[4, 8, 16, 32][..]);
    let divergences: &[f64] = ctx.scale.pick3(
        &[0.1, 0.4][..],
        &[0.05, 0.1, 0.2, 0.4][..],
        &[0.025, 0.05, 0.1, 0.2, 0.4, 0.8][..],
    );
    let reps = ctx.scale.pick3(2, 8, 30);

    let spec = SweepSpec::new()
        .axis_u32("n", ns)
        .axis_f64("divergence", divergences)
        .axis_str("delay", &FAMILIES)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let cfg = SyncConfig::new(cell.u32("n"), KEY_SPACE)
            .divergence(cell.f64("divergence"))
            .delay(delay_for(FAMILIES[cell.idx("delay")]))
            .seed(cell.seed())
            .shards(ctx.shards);
        let o = run_antientropy(&cfg);
        CellMetrics::new()
            .with_sync(&o)
            .metric("invented", o.invented().len() as f64)
    });

    let widest = ns.len() - 1;

    let mut table = Table::new(&[
        "n",
        "divergence",
        "delay",
        "converged rate",
        "rounds (mean)",
        "time (mean)",
        "wire bytes (mean)",
        "entries sent (mean)",
    ]);
    // Bytes vs divergent entries at the widest n, per family (the state
    // size is constant, so any byte growth along this series is
    // divergence-driven by construction).
    let mut byte_points: Vec<(f64, f64)> = Vec::new();
    // Time vs n for the exponential family at the mid divergence.
    let mut time_points: Vec<(f64, f64)> = Vec::new();
    let mid_div = divergences.len() / 2;
    let mut min_converged = 1.0f64;
    let mut max_residual = 0.0f64;
    let mut total_invented = 0.0f64;
    let mut family_time_lo = f64::INFINITY;
    let mut family_time_hi = 0.0f64;
    for group in outcome.groups() {
        let converged = group.mean("converged");
        min_converged = min_converged.min(converged);
        max_residual = max_residual.max(group.mean("residual_divergence"));
        total_invented += {
            let o = group.online("invented");
            o.mean() * o.count() as f64
        };
        let wire = group.mean("wire_bytes");
        let time = group.mean("time");
        let entries_mean = group.counter_total("sync_entries_sent") as f64 / group.len() as f64;
        if group.idx("n") == widest && group.idx("delay") == 0 {
            let entries = group.value("divergence").as_f64() * f64::from(KEY_SPACE);
            byte_points.push((entries, wire));
        }
        if group.idx("delay") == 0 && group.idx("divergence") == mid_div {
            time_points.push((f64::from(group.value("n").as_u32()), time));
        }
        if group.idx("n") == widest && group.idx("divergence") == mid_div {
            family_time_lo = family_time_lo.min(time);
            family_time_hi = family_time_hi.max(time);
        }
        table.row(&[
            group.value("n").to_string(),
            fmt_num(group.value("divergence").as_f64()),
            group.value("delay").to_string(),
            format!("{converged:.2}"),
            fmt_num(group.mean("rounds")),
            fmt_num(time),
            fmt_num(wire),
            fmt_num(entries_mean),
        ]);
    }

    let byte_fit = fit_line(&byte_points).expect("at least two divergence levels");
    let time_fit = fit_line(&time_points).expect("at least two network sizes");
    // What a naive full-image exchange would put on one replica pair, for
    // scale: the digest protocol's whole-network total at the lowest
    // divergence is compared against it.
    let flood_pair = ENTRY_BYTES * u64::from(KEY_SPACE);
    let lowest_bytes = byte_points
        .iter()
        .fold(f64::INFINITY, |acc, p| acc.min(p.1));
    let family_spread = if family_time_lo > 0.0 {
        family_time_hi / family_time_lo
    } else {
        1.0
    };

    let findings = vec![
        format!(
            "every fault-free cell converged to byte-identical live replicas: \
             minimum per-group converged rate {min_converged:.2}, maximum mean \
             residual divergence {max_residual:.2} entries, {} invented entries \
             anywhere in the grid",
            fmt_num(total_invented)
        ),
        format!(
            "wire bytes scale with divergence, not state size: with the key space \
             pinned at {KEY_SPACE}, total bytes at n = {} fit {} + {} per divergent \
             entry (R² = {:.3}); at the lowest divergence the whole network spends \
             {} bytes, {:.2}x the {} bytes a single full-image exchange between one \
             replica pair would cost",
            ns[widest],
            fmt_num(byte_fit.intercept),
            fmt_num(byte_fit.slope),
            byte_fit.r_squared,
            fmt_num(lowest_bytes),
            lowest_bytes / flood_pair as f64,
            flood_pair
        ),
        format!(
            "convergence time grows mildly with n under the Definition-1 pacing: \
             at divergence {} the exponential family fits time = {} + {}·n δ \
             (R² = {:.3}) — each gossip round costs O(δ) in expectation, and the \
             cyclic peer schedule keeps the round count shallow",
            fmt_num(divergences[mid_div]),
            fmt_num(time_fit.intercept),
            fmt_num(time_fit.slope),
            time_fit.r_squared
        ),
        format!(
            "delay families at equal expected delay land close, as Definition 1 \
             predicts: at n = {} and divergence {} the slowest family's mean \
             convergence time is {family_spread:.2}x the fastest's \
             (exp vs uniform vs deterministic, all at mean δ = {DELTA})",
            ns[widest],
            fmt_num(divergences[mid_div])
        ),
        format!(
            "parameters: n in {ns:?} on K_n, key space {KEY_SPACE} (constant across \
             the grid by design), divergence in {divergences:?}, families {FAMILIES:?} \
             at mean δ = {DELTA}, {reps} seeds per point; fresh-write placement from \
             the dedicated statesync-writes SeedStream (bit-identical at any \
             --threads/--shards)"
        ),
    ];

    ExperimentReport {
        id: "E21",
        title: "Anti-entropy sync: convergence and wire bytes vs divergence",
        claim: "Definition 1's expected-delay bound paces anti-entropy gossip: \
                replicas converge in a handful of δ-rounds under any delay family \
                of equal mean, and Merkle-style digests keep the bytes on the wire \
                proportional to the divergence, not the state size",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_converges_everywhere_with_bytes_accounted() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E21");
        // 2 sizes × 2 divergences × 3 families × 2 seeds.
        assert_eq!(report.sweep.cells.len(), 2 * 2 * 3 * 2);
        for cell in &report.sweep.cells {
            let label = cell.cell.label();
            assert_eq!(cell.metrics.get("converged"), Some(1.0), "{label}");
            assert_eq!(
                cell.metrics.get("residual_divergence"),
                Some(0.0),
                "{label}"
            );
            assert_eq!(cell.metrics.get("invented"), Some(0.0), "{label}");
            assert!(cell.metrics.get("wire_bytes").unwrap() > 0.0, "{label}");
            assert!(cell.metrics.get("rounds").unwrap() >= 1.0, "{label}");
            assert!(
                cell.metrics.get_counter("payload_bytes").unwrap() > 0,
                "{label}"
            );
            assert!(
                cell.metrics.get_counter("sync_entries_sent").unwrap() > 0,
                "{label}: divergent cells must ship entries"
            );
        }
    }

    #[test]
    fn wire_bytes_track_divergence_at_fixed_state_size() {
        // The acceptance criterion in one assertion: quadrupling the
        // divergence fraction at a constant key space must raise the
        // data-plane bytes, and the leaf traffic must dominate the delta.
        let ctx = RunCtx::smoke();
        let report = run(&ctx);
        let lo = report
            .sweep
            .group_at(&[("n", 0), ("divergence", 0), ("delay", 0)])
            .expect("low-divergence group");
        let hi = report
            .sweep
            .group_at(&[("n", 0), ("divergence", 1), ("delay", 0)])
            .expect("high-divergence group");
        assert!(
            hi.mean("wire_bytes") > lo.mean("wire_bytes"),
            "bytes must grow with divergence"
        );
        assert!(
            hi.counter_total("sync_entries_sent") > lo.counter_total("sync_entries_sent"),
            "entry traffic must grow with divergence"
        );
    }

    #[test]
    fn delay_families_are_exhaustive_and_calibrated() {
        for family in FAMILIES {
            let d = delay_for(family);
            assert!(
                (d.mean().as_secs() - DELTA).abs() < 1e-9,
                "{family} must have mean delta"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown delay family")]
    fn unknown_family_panics() {
        let _ = delay_for("cauchy");
    }
}
