//! The repository benchmark: four closed-loop workloads driven through
//! the crates' public APIs, with end-to-end metrics from untraced runs
//! and per-layer metrics from a traced run.
//!
//! The benchmark measures the program from outside: every span is
//! opened here, around a call into a layer's public function, and no
//! crate is changed to be measured. `README.md` next to this package is
//! the metric glossary and says why each workload exists.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod host;
pub mod replay;
pub mod ring;
pub mod spans;
pub mod stats;
pub mod sweep_mix;

use spans::{SpanCtx, Tracer};

/// Per-layer values of one iteration or probe, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One benchmark metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name; for per-layer metrics the part before the first `.`
    /// is the layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("events_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("ok_frac", "fraction", "higher"),
];

/// Per-layer metrics, printed by traced runs (0 where a workload
/// bypasses the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m("builder.build_s", "s", "lower"),
    m("builder.self_s", "s", "lower"),
    m("scenario.compile_s", "s", "lower"),
    m("scenario.oracle_s", "s", "lower"),
    m("scenario.self_s", "s", "lower"),
    m("net.run_s", "s", "lower"),
    m("net.messages", "count", "lower"),
    m("net.ticks", "count", "lower"),
    m("net.events_per_message", "ratio", "lower"),
    m("net.self_s", "s", "lower"),
    m("queue.scheduled", "count", "lower"),
    m("queue.cancelled", "count", "lower"),
    m("queue.popped", "count", "lower"),
    m("queue.dead_skims", "count", "lower"),
    m("queue.cancel_ratio", "ratio", "lower"),
    m("queue.replay_ns_per_op", "ns", "lower"),
    m("delay.draws", "count", "lower"),
    m("delay.sample_ns", "ns", "lower"),
    m("shard.windows", "count", "higher"),
    m("shard.single_steps", "count", "lower"),
    m("shard.single_step_frac", "fraction", "lower"),
    m("shard.fell_back", "flag", "lower"),
    m("shard.busy_s", "s", "lower"),
    m("shard.critical_path_s", "s", "lower"),
    m("shard.imbalance", "ratio", "lower"),
    m("shard.overhead_s", "s", "lower"),
    m("shard.speedup_vs_seq", "ratio", "higher"),
    m("shard.self_s", "s", "lower"),
    m("fault.crashes", "count", "lower"),
    m("fault.dropped", "count", "lower"),
    m("adversary.intercepted", "count", "lower"),
    m("adversary.clamped", "count", "lower"),
    m("adversary.violations", "count", "lower"),
    m("sweep.cells", "count", "higher"),
    m("sweep.workers", "count", "higher"),
    m("sweep.cell_p50_ms", "ms", "lower"),
    m("sweep.cell_p95_ms", "ms", "lower"),
    m("sweep.busy_frac", "fraction", "higher"),
    m("sweep.idle_s", "s", "lower"),
    m("sweep.self_s", "s", "lower"),
    m("benor.cell_ms", "ms", "lower"),
    m("brb.cell_ms", "ms", "lower"),
    m("consensus.self_s", "s", "lower"),
    m("antientropy.cell_ms", "ms", "lower"),
    m("antientropy.wire_bytes", "bytes", "lower"),
    m("antientropy.rounds", "count", "lower"),
    m("antientropy.keyspace_x4_ratio", "ratio", "lower"),
    m("statesync.self_s", "s", "lower"),
    m("telemetry.records", "count", "lower"),
    m("telemetry.trace_mb", "MB", "lower"),
    m("telemetry.record_overhead_s", "s", "lower"),
    m("telemetry.render_s", "s", "lower"),
    m("telemetry.validate_s", "s", "lower"),
    m("telemetry.analysis_s", "s", "lower"),
    m("telemetry.hist_export_s", "s", "lower"),
    m("telemetry.self_s", "s", "lower"),
    m("bench.span_overhead_s", "s", "lower"),
    m("bench.self_s", "s", "lower"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §3 election on a 10⁶-node ring, sequential kernel.
    ElectionSeq,
    /// The same ring with ~n tokens, to a horizon, on 2 shards.
    ElectionSharded,
    /// A scenario grid of Ben-Or, BRB and anti-entropy on 2 workers.
    SweepMix,
    /// A recorded sharded ring run, then render, validate and analyse.
    TraceReplay,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ElectionSeq,
        Workload::ElectionSharded,
        Workload::SweepMix,
        Workload::TraceReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ElectionSeq => "election_seq",
            Workload::ElectionSharded => "election_sharded",
            Workload::SweepMix => "sweep_mix",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn bench(self) -> Box<dyn Bench> {
        match self {
            Workload::ElectionSeq => Box::new(ring::RingBench::SEQ),
            Workload::ElectionSharded => Box::new(ring::RingBench::SHARDED),
            Workload::SweepMix => Box::new(sweep_mix::SweepMix::FULL),
            Workload::TraceReplay => Box::new(ring::RingBench::TRACE),
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Set-up samples in seconds: work before the first simulated event.
    pub setup_s: Vec<f64>,
    /// Host seconds of the measured section.
    pub wall_s: f64,
    /// Simulated kernel events in the measured section.
    pub events: u64,
    /// Output checks attempted (runs or sweep cells).
    pub attempted: u64,
    /// Attempted checks that failed (a cell with two violations is one).
    pub failed: u64,
    /// Why they failed, one line per violation.
    pub failures: Vec<String>,
    /// Per-layer counts of this iteration.
    pub layer: Layer,
}

/// A workload as the measuring loop drives it.
pub trait Bench {
    /// Worker threads the workload uses.
    fn threads(&self) -> u32;

    /// Runs iteration `i` of the run seeded `seed`, opening spans under
    /// `ctx` when `tracer` is enabled.
    fn iteration(&self, seed: u64, i: u64, tracer: &Tracer, ctx: SpanCtx) -> Iteration;

    /// Per-layer values read from the spans of one traced iteration.
    fn span_layer(&self, spans: &[spans::Span]) -> Layer;

    /// Traced-run measurements made once, outside the iterations:
    /// replays through a single layer and reference runs.
    fn probes(&self, seed: u64, traced: &[Iteration]) -> Layer;
}

/// Iterations a run makes even when `--seconds` has already passed.
const MIN_ITERATIONS: u64 = 3;

/// One summarised metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The metric.
    pub def: MetricDef,
    /// The reported value (a median unless the glossary says otherwise).
    pub value: f64,
    /// The samples the value summarises (empty for single values).
    pub samples: Vec<f64>,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload measured.
    pub workload: Workload,
    /// Iterations run.
    pub iterations: u64,
    /// Output checks attempted.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Worker threads used.
    pub threads: u32,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Summary>,
    /// Spans recorded (traced run only).
    pub spans: Vec<spans::Span>,
}

/// Runs `workload` for about `seconds` seconds with inputs from `seed`
/// (at least [`MIN_ITERATIONS`] iterations, twice that when traced).
///
/// An untraced run reports [`END_TO_END`]. A traced run alternates a
/// traced and an untraced iteration on the same input, reports
/// [`PER_LAYER`] from the traced ones, and takes the span overhead as
/// the median paired difference.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let bench = workload.bench();
    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let off = Tracer::off();
    let started = Instant::now();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut plain: Vec<Iteration> = Vec::new();
    let min_iterations = MIN_ITERATIONS * if trace { 2 } else { 1 };
    let mut slowest = 0.0f64;
    let mut i = 0u64;
    // Start another iteration only if one as slow as the slowest so far
    // still ends within `seconds`, so a run lasts about `seconds`.
    while i < min_iterations || started.elapsed().as_secs_f64() + slowest <= seconds {
        let iteration_started = Instant::now();
        if trace && i.is_multiple_of(2) {
            let input = i / 2;
            let it = tracer.span(SpanCtx::root(input), "bench.iteration", |ctx| {
                bench.iteration(seed, input, &tracer, ctx)
            });
            traced.push(it);
        } else {
            let input = if trace { i / 2 } else { i };
            plain.push(bench.iteration(seed, input, &off, SpanCtx::root(input)));
        }
        slowest = slowest.max(iteration_started.elapsed().as_secs_f64());
        i += 1;
    }

    let all: Vec<&Iteration> = traced.iter().chain(&plain).collect();
    let attempted = all.iter().map(|it| it.attempted).sum();
    let failed = all.iter().map(|it| it.failed).sum();
    let failures: Vec<String> = all.iter().flat_map(|it| it.failures.clone()).collect();
    let metrics = if trace {
        per_layer(bench.as_ref(), seed, &tracer, &mut traced, &plain)
    } else {
        end_to_end(&plain, attempted, failed)
    };
    Outcome {
        workload,
        iterations: i,
        attempted,
        failed,
        failures,
        threads: bench.threads(),
        metrics,
        spans: tracer.spans(),
    }
}

fn summary(def: MetricDef, samples: Vec<f64>) -> Summary {
    Summary {
        def,
        value: stats::median(&samples),
        samples,
    }
}

fn end_to_end(its: &[Iteration], attempted: u64, failed: u64) -> Vec<Summary> {
    let wall: Vec<f64> = its.iter().map(|it| it.wall_s).collect();
    let rates: Vec<f64> = its.iter().map(|it| it.events as f64 / it.wall_s).collect();
    let setup: Vec<f64> = its.iter().flat_map(|it| it.setup_s.clone()).collect();
    let events: u64 = its.iter().map(|it| it.events).sum();
    let rss = host::peak_rss_mb().expect("peak RSS needs /proc/self/status");
    let ok_frac = 1.0 - failed as f64 / attempted.max(1) as f64;
    vec![
        summary(END_TO_END[0], wall.clone()),
        // Pooled: all events over all measured seconds.
        Summary {
            def: END_TO_END[1],
            value: events as f64 / wall.iter().sum::<f64>(),
            samples: rates,
        },
        summary(END_TO_END[2], setup),
        Summary {
            def: END_TO_END[3],
            value: rss,
            samples: Vec::new(),
        },
        Summary {
            def: END_TO_END[4],
            value: ok_frac,
            samples: Vec::new(),
        },
    ]
}

fn per_layer(
    bench: &dyn Bench,
    seed: u64,
    tracer: &Tracer,
    traced: &mut [Iteration],
    plain: &[Iteration],
) -> Vec<Summary> {
    for (input, it) in traced.iter_mut().enumerate() {
        let spans = tracer.spans_of(input as u64);
        let selfs = spans::layer_self_times(&spans);
        for def in PER_LAYER {
            if let Some(layer) = def.name.strip_suffix(".self_s") {
                let secs = selfs.get(layer).copied().unwrap_or(0.0);
                it.layer.insert(def.name, secs);
            }
        }
        it.layer.extend(bench.span_layer(&spans));
    }
    let mut once = bench.probes(seed, traced);
    let overheads: Vec<f64> = traced
        .iter()
        .zip(plain)
        .map(|(t, p)| t.wall_s - p.wall_s)
        .collect();
    once.insert("bench.span_overhead_s", stats::median(&overheads));
    PER_LAYER
        .iter()
        .map(|&def| match once.get(def.name) {
            Some(&value) => Summary {
                def,
                value,
                samples: Vec::new(),
            },
            None => summary(
                def,
                traced
                    .iter()
                    .map(|it| it.layer.get(def.name).copied().unwrap_or(0.0))
                    .collect(),
            ),
        })
        .collect()
}

/// Derives the seed of input `i` of a run seeded `seed`, in `domain`.
pub fn input_seed(seed: u64, domain: &str, i: u64) -> u64 {
    abe_sim::SeedStream::new(seed).child_seed(domain, i)
}

/// 64-bit FNV-1a, a stable hash for trace bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
