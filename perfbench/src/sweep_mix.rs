//! `sweep_mix`: a scenario grid of Ben-Or, BRB and anti-entropy cells,
//! written as `.abes` text, compiled with `abe_scenario::{parse,
//! compile}` and run with `abe_sweep::run_sweep` over the compiled
//! scenario's `spec` and `run_cell`. Each cell runs in the benchmark's
//! own closure, so it gets its own span.

use std::collections::BTreeSet;
use std::time::Instant;

use abe_scenario::campaign::check_oracles;
use abe_scenario::{compile, parse, CompiledScenario, Scenario};
use abe_sweep::{run_sweep, SweepOutcome};

use crate::spans::{total_secs, Span, SpanCtx, Tracer};
use crate::{input_seed, replay, stats, Bench, Iteration, Layer};

/// The grid of one `sweep_mix` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMix {
    /// Seeds per Ben-Or grid point (18 points).
    pub benor_seeds: u32,
    /// Seeds per BRB grid point (6 points).
    pub brb_seeds: u32,
    /// Seeds per anti-entropy grid point (8 points).
    pub antientropy_seeds: u32,
    /// Anti-entropy key space.
    pub key_space: u32,
    /// Sweep worker threads.
    pub workers: u32,
}

/// Parse-and-compile repetitions per iteration; set-up is microseconds,
/// so one sample would be noise.
const SETUP_REPS: usize = 25;

/// Span name of each scenario's cells, in [`SweepMix::texts`] order.
const CELL_SPANS: [&str; 3] = [
    "consensus.benor_cell",
    "consensus.brb_cell",
    "statesync.cell",
];

impl SweepMix {
    /// The measured grid: 144 Ben-Or, 48 BRB and 16 anti-entropy cells.
    pub const FULL: SweepMix = SweepMix {
        benor_seeds: 8,
        brb_seeds: 8,
        antientropy_seeds: 2,
        key_space: 1024,
        workers: 2,
    };

    /// The three scenario texts of one input, in [`CELL_SPANS`] order.
    pub fn texts(&self, base_seed: u64) -> [String; 3] {
        let benor = format!(
            "scenario bench_benor\nprotocol benor\ndelay exp mean=1\ntopology complete\n\
             axis n 16 31\naxis strategy none swap burst reorder adaptive\naxis budget 1 4\n\
             seeds {}\nbase-seed {base_seed}\n\
             adversary strategy=@strategy budget=@budget burst-p=0.05 pareto-shape=2.5\n\
             filter strategy=none only-at budget=1\nrecord consensus\nexpect decided\n",
            self.benor_seeds
        );
        let brb = format!(
            "scenario bench_brb\nprotocol brb\ndelay exp mean=1\ntopology complete\n\
             axis n 16 31 64\naxis churn 0 2\nseeds {}\nbase-seed {base_seed}\n\
             fault churn events=@churn horizon=8 downtime=2\nrecord consensus\nexpect mixed\n",
            self.brb_seeds
        );
        let antientropy = format!(
            "scenario bench_antientropy\nprotocol antientropy key-space={}\n\
             delay @delay mean=1\ntopology complete\ndivergence @divergence\n\
             axis n 8 16\naxis divergence 0.1 0.4\naxis delay exp uniform\n\
             seeds {}\nbase-seed {base_seed}\nrecord sync\nexpect decided\n",
            self.key_space, self.antientropy_seeds
        );
        [benor, brb, antientropy]
    }

    /// Parses and compiles one input's scenarios.
    pub fn compile(
        &self,
        base_seed: u64,
        tracer: &Tracer,
        ctx: SpanCtx,
    ) -> Vec<(Scenario, CompiledScenario)> {
        self.texts(base_seed)
            .iter()
            .map(|text| {
                let scenario = tracer.span(ctx, "scenario.parse", |_| {
                    parse(text).expect("benchmark scenarios parse")
                });
                let compiled = tracer.span(ctx, "scenario.compile", |_| {
                    compile(&scenario).expect("benchmark scenarios compile")
                });
                (scenario, compiled)
            })
            .collect()
    }

    /// Runs one compiled scenario's sweep, one span per cell.
    pub fn sweep(
        &self,
        compiled: &CompiledScenario,
        cell_span: &'static str,
        tracer: &Tracer,
        ctx: SpanCtx,
    ) -> Result<SweepOutcome, String> {
        tracer.span(ctx, "sweep.run", |ctx| {
            run_sweep(&compiled.spec(), self.workers as usize, |cell| {
                tracer.span(ctx, cell_span, |_| compiled.run_cell(cell))
            })
            .map_err(|e| e.to_string())
        })
    }
}

/// Checks one scenario's cells: the campaign oracles (agreement,
/// validity, BRB consistency, anti-entropy convergence, zero auditor
/// violations) plus zero invented writes on anti-entropy cells.
pub fn check(scenario: &Scenario, outcome: &SweepOutcome) -> Vec<String> {
    let mut failures = check_oracles(scenario, outcome).violations;
    for cell in &outcome.cells {
        if let Some(invented) = cell.metrics.get("invented") {
            if invented != 0.0 {
                failures.push(format!("{}: {invented} invented writes", cell.cell.label()));
            }
        }
    }
    failures
}

/// Adds the per-cell kernel, fault, adversary and state-sync counts of
/// one sweep to `layer`.
fn cell_layer(layer: &mut Layer, outcome: &SweepOutcome) {
    let mut add = |name, v: f64| *layer.entry(name).or_insert(0.0) += v;
    for cell in &outcome.cells {
        let m = &cell.metrics;
        let c = |name| m.get_counter(name).unwrap_or(0) as f64;
        add("net.messages", c("msgs_sent"));
        add("net.ticks", c("ticks"));
        add("queue.scheduled", c("queue_scheduled"));
        add("queue.cancelled", c("queue_cancelled"));
        add("queue.popped", c("queue_popped"));
        add("delay.draws", c("msgs_sent"));
        add("fault.crashes", c("fault_crashes"));
        add(
            "fault.dropped",
            c("fault_dropped_crash") + c("fault_dropped_partition") + c("fault_dropped_random"),
        );
        add("adversary.intercepted", c("adv_intercepted"));
        add("adversary.clamped", c("adv_clamped"));
        add("adversary.violations", c("adv_violations"));
        if m.get("invented").is_some() {
            add("antientropy.cells", 1.0);
            add("antientropy.wire_bytes", m.get("wire_bytes").unwrap_or(0.0));
            add("antientropy.rounds", m.get("rounds").unwrap_or(0.0));
        }
    }
}

fn ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() * 1e3)
        .collect()
}

impl Bench for SweepMix {
    fn threads(&self) -> u32 {
        self.workers
    }

    fn iteration(&self, seed: u64, i: u64, tracer: &Tracer, ctx: SpanCtx) -> Iteration {
        let base_seed = input_seed(seed, "sweep_mix", i);
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut compiled = Vec::new();
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            compiled = self.compile(base_seed, tracer, ctx);
            setup_s.push(started.elapsed().as_secs_f64());
        }

        let started = Instant::now();
        let mut outcomes = Vec::with_capacity(compiled.len());
        for ((_, c), cell_span) in compiled.iter().zip(CELL_SPANS) {
            outcomes.push(self.sweep(c, cell_span, tracer, ctx));
        }
        let mut failures = Vec::new();
        tracer.span(ctx, "scenario.oracle", |_| {
            for ((scenario, _), outcome) in compiled.iter().zip(&outcomes) {
                match outcome {
                    Ok(o) => failures.extend(check(scenario, o)),
                    Err(e) => failures.push(format!("{}: {e}", scenario.name)),
                }
            }
        });
        let wall_s = started.elapsed().as_secs_f64();

        let mut layer = Layer::new();
        let mut attempted = 0u64;
        let mut events = 0u64;
        for ((_, c), outcome) in compiled.iter().zip(&outcomes) {
            let Ok(outcome) = outcome else {
                attempted += c.spec().expand().len() as u64;
                continue;
            };
            attempted += outcome.cells.len() as u64;
            events += outcome
                .cells
                .iter()
                .map(|c| c.metrics.get_counter("events").unwrap_or(0))
                .sum::<u64>();
            cell_layer(&mut layer, outcome);
        }
        if let Some(cells) = layer.remove("antientropy.cells") {
            for name in ["antientropy.wire_bytes", "antientropy.rounds"] {
                layer.insert(name, layer[name] / cells);
            }
        }
        crate::ring::ratio_layer(&mut layer, events);
        layer.insert("sweep.cells", attempted as f64);
        layer.insert("sweep.workers", f64::from(self.workers));
        // Every violation line starts with its cell's label.
        let failed_cells: BTreeSet<&str> = failures
            .iter()
            .map(|f| f.split_once(": ").map_or(f.as_str(), |(label, _)| label))
            .collect();
        Iteration {
            setup_s,
            wall_s,
            events,
            attempted: attempted.max(1),
            failed: failed_cells.len() as u64,
            failures,
            layer,
        }
    }

    fn span_layer(&self, spans: &[Span]) -> Layer {
        let cells: Vec<f64> = CELL_SPANS.iter().flat_map(|name| ms(spans, name)).collect();
        let sweep_s = total_secs(spans, "sweep.run");
        let busy_s = cells.iter().sum::<f64>() / 1e3;
        let capacity = sweep_s * f64::from(self.workers);
        let compile_s = total_secs(spans, "scenario.parse") + total_secs(spans, "scenario.compile");
        let median_ms = |name| {
            let v = ms(spans, name);
            if v.is_empty() {
                0.0
            } else {
                stats::median(&v)
            }
        };
        Layer::from([
            ("scenario.compile_s", compile_s / SETUP_REPS as f64),
            ("scenario.oracle_s", total_secs(spans, "scenario.oracle")),
            ("sweep.cell_p50_ms", stats::quantile(&cells, 0.5)),
            ("sweep.cell_p95_ms", stats::quantile(&cells, 0.95)),
            ("sweep.busy_frac", busy_s / capacity),
            ("sweep.idle_s", capacity - busy_s),
            ("benor.cell_ms", median_ms("consensus.benor_cell")),
            ("brb.cell_ms", median_ms("consensus.brb_cell")),
            ("antientropy.cell_ms", median_ms("statesync.cell")),
        ])
    }

    fn probes(&self, seed: u64, traced: &[Iteration]) -> Layer {
        let first = &traced[0].layer;
        let get = |name| first.get(name).copied().unwrap_or(0.0);
        let mix = replay::QueueMix {
            pending: 16,
            scheduled: get("queue.scheduled") as u64,
            cancelled: get("queue.cancelled") as u64,
            popped: get("queue.popped") as u64,
        };
        let model = crate::ring::Delay::Exponential.model();
        Layer::from([
            (
                "queue.replay_ns_per_op",
                replay::queue_ns_per_op(&mix, &*model, seed),
            ),
            ("delay.sample_ns", replay::delay_sample_ns(&*model, seed)),
            ("antientropy.keyspace_x4_ratio", keyspace_ratio(seed)),
        ])
    }
}

/// Repetitions of each anti-entropy probe cell.
const PROBE_REPS: usize = 3;

/// Median time of one n=16 anti-entropy cell at key space 1024 over the
/// same cell at 256. Linear digest work would give about 4.
fn keyspace_ratio(seed: u64) -> f64 {
    let cell_secs = |key_space: u32| {
        let text = format!(
            "scenario bench_keyspace\nprotocol antientropy key-space={key_space}\n\
             delay exp mean=1\ntopology complete\ndivergence 0.4\nn 16\nseeds 1\n\
             base-seed {seed}\nrecord sync\nexpect decided\n"
        );
        let compiled = compile(&parse(&text).expect("probe parses")).expect("probe compiles");
        let cell = compiled.spec().expand().remove(0);
        let samples: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(compiled.run_cell(&cell));
                started.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&samples)
    };
    cell_secs(1024) / cell_secs(256)
}
