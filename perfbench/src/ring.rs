//! The ring workloads: `election_seq`, `election_sharded` and
//! `trace_replay`, all the §3 ABE election on a unidirectional ring,
//! built with `NetworkBuilder` and run with `Network::run` or
//! `Network::run_sharded`.

use std::sync::Arc;
use std::time::Instant;

use abe_core::delay::{DelayModel, Exponential, SharedDelay, Uniform};
use abe_core::{Network, NetworkBuilder, NetworkReport, Recording, RunRecorder, Topology};
use abe_election::{AbeElection, ElectionState};
use abe_sim::{RunLimits, RunOutcome, SimTime};
use abe_telemetry::{render_header, validate_trace, JsonlSink, TraceAnalysis};

use crate::spans::{total_secs, Span, SpanCtx, Tracer};
use crate::{input_seed, replay, Bench, Iteration, Layer};

/// Channel delay family of a ring workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delay {
    /// Exponential with mean 1: no lookahead, every sharded event
    /// single-steps.
    Exponential,
    /// Uniform on `[0.5, 1.5]`: 0.5 of lookahead per window.
    Uniform,
}

impl Delay {
    /// The delay model.
    pub fn model(self) -> SharedDelay {
        match self {
            Delay::Exponential => Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
            Delay::Uniform => Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
        }
    }
}

/// How each node's activation parameter is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `A0 = a / n²`, the calibration under which the election is linear.
    Calibrated(f64),
    /// A fixed `A0`: every node wakes within a few ticks, so about `n`
    /// tokens circulate.
    Fixed(f64),
}

/// One ring workload: the network it builds and how it runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingBench {
    /// Seed domain, so workloads draw independent inputs.
    pub name: &'static str,
    /// Ring size.
    pub n: u32,
    /// Channel delays.
    pub delay: Delay,
    /// Activation parameter.
    pub activation: Activation,
    /// Shard count; above 1 the run goes through `run_sharded`.
    pub shards: u32,
    /// Virtual-time horizon; `None` runs until a leader stops the network.
    pub horizon: Option<f64>,
    /// Record the full trace with histograms, then render, validate and
    /// analyse it inside the measured section.
    pub record: bool,
}

/// Event budget: far above any run of these sizes, so never reached.
const MAX_EVENTS: u64 = 1_000_000_000;

impl RingBench {
    /// `election_seq`: calibrated election on 10⁶ nodes, sequential.
    pub const SEQ: RingBench = RingBench {
        name: "election_seq",
        n: 1_000_000,
        delay: Delay::Exponential,
        activation: Activation::Calibrated(1.0),
        shards: 1,
        horizon: None,
        record: false,
    };

    /// `election_sharded`: ~n tokens on 10⁶ nodes to a horizon, 2 shards.
    pub const SHARDED: RingBench = RingBench {
        name: "election_sharded",
        n: 1_000_000,
        delay: Delay::Exponential,
        activation: Activation::Fixed(0.5),
        shards: 2,
        horizon: Some(2.0),
        record: false,
    };

    /// `trace_replay`: a recorded 10⁵-node windowed run on 2 shards.
    pub const TRACE: RingBench = RingBench {
        name: "trace_replay",
        n: 100_000,
        delay: Delay::Uniform,
        activation: Activation::Fixed(0.5),
        shards: 2,
        horizon: Some(4.0),
        record: true,
    };

    /// Builds the network for one input.
    pub fn network(&self, seed: u64) -> Network<AbeElection> {
        let topo = Topology::unidirectional_ring(self.n).expect("n >= 1");
        let mut builder = NetworkBuilder::new(topo)
            .delay_shared(self.delay.model())
            .seed(seed)
            .shards(self.shards);
        if self.record {
            builder = builder.record(Recording::full().histograms(true));
        }
        let n = self.n;
        let node = move |_| match self.activation {
            Activation::Calibrated(a) => AbeElection::calibrated(n, a),
            Activation::Fixed(a0) => AbeElection::new(n, a0),
        };
        builder
            .build(|i| node(i).expect("valid activation parameter"))
            .expect("a ring is a valid network")
    }

    /// Runs `net` to the workload's stop condition.
    pub fn execute(&self, net: Network<AbeElection>) -> (NetworkReport, Network<AbeElection>) {
        let mut limits = RunLimits::events(MAX_EVENTS);
        if let Some(h) = self.horizon {
            limits = limits.with_max_time(SimTime::from_secs(h));
        }
        if self.shards > 1 {
            net.run_sharded(limits)
        } else {
            net.run(limits)
        }
    }

    fn run_span(&self) -> &'static str {
        if self.shards > 1 {
            "shard.run_sharded"
        } else {
            "net.run"
        }
    }

    /// The input seed of iteration `i`.
    pub fn input(&self, seed: u64, i: u64) -> u64 {
        input_seed(seed, self.name, i)
    }

    /// Checks the run's outcome; the returned lines name what failed.
    fn check(&self, report: &NetworkReport, net: &Network<AbeElection>) -> Vec<String> {
        let leaders = net
            .protocols()
            .filter(|p| p.state() == ElectionState::Leader)
            .count();
        let mut failures = Vec::new();
        match self.horizon {
            None => {
                if !report.outcome.is_stopped() || leaders != 1 || report.counter("elected") != 1 {
                    failures.push(format!(
                        "{}: election did not end with exactly one leader \
                         (outcome {:?}, leaders {leaders})",
                        self.name, report.outcome
                    ));
                }
            }
            Some(_) => {
                if report.outcome != RunOutcome::MaxTime || leaders > 1 {
                    failures.push(format!(
                        "{}: run did not reach its horizon with at most one leader \
                         (outcome {:?}, leaders {leaders})",
                        self.name, report.outcome
                    ));
                }
            }
        }
        if report.messages_sent != report.messages_delivered + report.in_flight {
            failures.push(format!(
                "{}: {} sent != {} delivered + {} in flight",
                self.name, report.messages_sent, report.messages_delivered, report.in_flight
            ));
        }
        failures
    }
}

/// The kernel counts of one run's report.
fn report_layer(report: &NetworkReport) -> Layer {
    let q = report.queue_stats;
    Layer::from([
        ("net.messages", report.messages_sent as f64),
        ("net.ticks", report.ticks as f64),
        ("queue.scheduled", q.scheduled as f64),
        ("queue.cancelled", q.cancelled as f64),
        ("queue.popped", q.popped as f64),
        ("queue.dead_skims", (q.front_dead + q.far_dead) as f64),
        ("delay.draws", report.messages_sent as f64),
    ])
}

/// Adds the ratios of the kernel counts in `layer` over `events`.
pub(crate) fn ratio_layer(layer: &mut Layer, events: u64) {
    let get = |name| layer.get(name).copied().unwrap_or(0.0);
    let per_message = events as f64 / get("net.messages").max(1.0);
    let cancel_ratio = get("queue.cancelled") / get("queue.scheduled").max(1.0);
    layer.insert("net.events_per_message", per_message);
    layer.insert("queue.cancel_ratio", cancel_ratio);
}

/// Renders a recorded run as a complete trace-v1 file.
pub fn render_trace(rec: &RunRecorder) -> String {
    let mut sink = JsonlSink::new();
    rec.replay(&mut sink);
    format!(
        "{}\n{}",
        render_header(sink.records(), rec.dropped(), &[]),
        sink.body()
    )
}

/// What the telemetry flow of one recorded run produced.
struct Explained {
    trace_bytes: usize,
    failures: Vec<String>,
}

/// Renders, validates, analyses and exports the recorded run: the
/// "explain a run" flow, each step in its own span.
fn explain(
    bench: &RingBench,
    report: &NetworkReport,
    rec: &RunRecorder,
    tracer: &Tracer,
    ctx: SpanCtx,
) -> Explained {
    let name = bench.name;
    let trace = tracer.span(ctx, "telemetry.render", |_| render_trace(rec));
    let mut failures = Vec::new();
    match tracer.span(ctx, "telemetry.validate", |_| validate_trace(&trace)) {
        Ok(summary) => {
            if summary.records != report.trace_records || summary.records != rec.len() as u64 {
                failures.push(format!(
                    "{name}: trace has {} records, report says {}, recorder holds {}",
                    summary.records,
                    report.trace_records,
                    rec.len()
                ));
            }
        }
        Err(e) => failures.push(format!("{name}: trace-v1 validation failed: {e}")),
    }
    if rec.dropped() != 0 || report.trace_dropped != 0 {
        failures.push(format!("{name}: {} trace records dropped", rec.dropped()));
    }
    let model = bench.delay.model();
    let audit = tracer.span(ctx, "telemetry.analysis", |_| {
        delay_audit(
            &TraceAnalysis::from_records(rec.records().cloned()),
            &*model,
        )
    });
    if let Err(e) = &audit {
        failures.push(format!("{name}: {e}"));
    }
    let hist = tracer.span(ctx, "telemetry.hist_export", |_| {
        rec.histograms().map(|h| (h.to_json(), h.max_edge_mean()))
    });
    match (hist, audit) {
        (Some((json, hist_max)), Ok(trace_max)) => {
            if !json.starts_with("{\"schema\":\"abe/hist-v1\"") {
                failures.push(format!("{name}: histogram export is not hist-v1"));
            }
            if (hist_max - trace_max).abs() > 1e-9 * trace_max.max(1.0) {
                failures.push(format!(
                    "{name}: histogram max edge mean {hist_max} disagrees with trace {trace_max}"
                ));
            }
        }
        (None, _) => failures.push(format!("{name}: recording kept no histograms")),
        (_, Err(_)) => {}
    }
    Explained {
        trace_bytes: trace.len(),
        failures,
    }
}

/// The empirical Definition-1 audit of a trace against its delay model.
///
/// The pooled mean granted delay must stay within the model's declared
/// mean plus four standard errors, using the largest standard deviation
/// a distribution on the model's support can have; no edge's mean may
/// exceed the support's upper end. Returns the largest edge mean.
fn delay_audit(a: &TraceAnalysis, model: &dyn DelayModel) -> Result<f64, String> {
    let rows = a.delay_audit();
    if rows.is_empty() {
        return Err("delay audit found no sends".to_string());
    }
    let sends: u64 = rows.iter().map(|(_, e, _)| e.sends).sum();
    let sum: f64 = rows.iter().map(|(_, e, _)| e.delay_sum).sum();
    let pooled = sum / sends as f64;
    let declared = model.mean().as_secs();
    let hi = model
        .upper_bound()
        .ok_or("the audited model must have a bounded support")?
        .as_secs();
    let sd_max = (hi - model.min_delay()) / 2.0;
    let limit = declared + 4.0 * sd_max / (sends as f64).sqrt();
    if pooled > limit {
        return Err(format!(
            "pooled mean delay {pooled} over {sends} sends exceeds the declared bound \
             {declared} (+4 standard errors = {limit})"
        ));
    }
    let (edge, max) = a.max_edge_mean().expect("rows are non-empty");
    if max > hi {
        return Err(format!(
            "edge {edge} mean delay {max} exceeds the support bound {hi}"
        ));
    }
    Ok(max)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

impl Bench for RingBench {
    fn threads(&self) -> u32 {
        self.shards
    }

    fn iteration(&self, seed: u64, i: u64, tracer: &Tracer, ctx: SpanCtx) -> Iteration {
        let input = self.input(seed, i);
        let (net, setup_s) = timed(|| tracer.span(ctx, "builder.build", |_| self.network(input)));
        let started = Instant::now();
        let ((report, mut net), run_s) =
            timed(|| tracer.span(ctx, self.run_span(), |_| self.execute(net)));
        let telemetry = net.take_telemetry();
        let explained = telemetry
            .as_deref()
            .map(|rec| explain(self, &report, rec, tracer, ctx));
        let wall_s = started.elapsed().as_secs_f64();

        let mut failures = self.check(&report, &net);
        let mut layer = report_layer(&report);
        ratio_layer(&mut layer, report.events_processed);
        layer.insert("builder.build_s", setup_s);
        layer.insert("net.run_s", run_s);
        if let Some(t) = net.shard_timing() {
            let busy: Vec<f64> = t.busy_nanos.iter().map(|&b| b as f64 * 1e-9).collect();
            let total: f64 = busy.iter().sum();
            let max = busy.iter().copied().fold(0.0, f64::max);
            let steps = (t.windows + t.single_steps).max(1) as f64;
            layer.insert("shard.windows", t.windows as f64);
            layer.insert("shard.single_steps", t.single_steps as f64);
            layer.insert("shard.single_step_frac", t.single_steps as f64 / steps);
            layer.insert("shard.fell_back", f64::from(u8::from(t.fell_back)));
            layer.insert("shard.busy_s", total);
            let critical = t.critical_path_nanos as f64 * 1e-9;
            layer.insert("shard.critical_path_s", critical);
            layer.insert("shard.overhead_s", run_s - critical);
            layer.insert("shard.imbalance", max / (total / busy.len() as f64));
        }
        if self.record {
            let explained = explained.unwrap_or_else(|| Explained {
                trace_bytes: 0,
                failures: vec![format!("{}: recording captured nothing", self.name)],
            });
            failures.extend(explained.failures);
            layer.insert("telemetry.records", report.trace_records as f64);
            layer.insert("telemetry.trace_mb", explained.trace_bytes as f64 / 1e6);
        }
        Iteration {
            setup_s: vec![setup_s],
            wall_s,
            events: report.events_processed,
            attempted: 1,
            failed: u64::from(!failures.is_empty()),
            failures,
            layer,
        }
    }

    fn span_layer(&self, spans: &[Span]) -> Layer {
        let mut layer = Layer::new();
        if self.record {
            for (metric, span) in [
                ("telemetry.render_s", "telemetry.render"),
                ("telemetry.validate_s", "telemetry.validate"),
                ("telemetry.analysis_s", "telemetry.analysis"),
                ("telemetry.hist_export_s", "telemetry.hist_export"),
            ] {
                layer.insert(metric, total_secs(spans, span));
            }
        }
        layer
    }

    fn probes(&self, seed: u64, traced: &[Iteration]) -> Layer {
        let first = &traced[0];
        let get = |name| first.layer.get(name).copied().unwrap_or(0.0);
        let mut out = Layer::new();
        let mix = replay::QueueMix {
            pending: u64::from(self.n),
            scheduled: get("queue.scheduled") as u64,
            cancelled: get("queue.cancelled") as u64,
            popped: get("queue.popped") as u64,
        };
        let model = self.delay.model();
        out.insert(
            "queue.replay_ns_per_op",
            replay::queue_ns_per_op(&mix, &*model, seed),
        );
        out.insert("delay.sample_ns", replay::delay_sample_ns(&*model, seed));
        let input = self.input(seed, 0);
        if self.shards > 1 {
            let sequential = RingBench { shards: 1, ..*self };
            let net = sequential.network(input);
            let (_, secs) = timed(|| sequential.execute(net));
            out.insert("shard.speedup_vs_seq", secs / get("net.run_s"));
        }
        if self.record {
            let unrecorded = RingBench {
                record: false,
                ..*self
            };
            let net = unrecorded.network(input);
            let (_, secs) = timed(|| unrecorded.execute(net));
            out.insert("telemetry.record_overhead_s", get("net.run_s") - secs);
        }
        out
    }
}
