//! Determinism of every workload at reduced size.
//!
//! The same input, run twice and at 1 and 2 shards (or sweep workers),
//! must give identical simulated statistics: events, messages, queue
//! scheduled/cancelled/popped, end time and a hash of the trace bytes.
//! The pinned values catch a change that alters behaviour the same way
//! at every shard count: a speed-up that changes what is simulated fails
//! here instead of silently moving the benchmark's numbers.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use abe_perfbench::ring::{render_trace, RingBench};
use abe_perfbench::spans::{SpanCtx, Tracer};
use abe_perfbench::sweep_mix::{check, SweepMix};
use abe_perfbench::{fnv1a, input_seed};
use abe_sweep::SweepOutcome;

/// The simulated statistics a run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimStats {
    events: u64,
    messages: u64,
    scheduled: u64,
    cancelled: u64,
    popped: u64,
    end_time_bits: u64,
    trace_hash: u64,
}

/// Runs one ring input with full recording and reduces it to [`SimStats`].
fn ring_stats(bench: RingBench, seed: u64) -> SimStats {
    let recorded = RingBench {
        record: true,
        ..bench
    };
    let (report, mut net) = recorded.execute(recorded.network(seed));
    let rec = net.take_telemetry().expect("recording was on");
    assert_eq!(rec.dropped(), 0);
    let stats = SimStats {
        events: report.events_processed,
        messages: report.messages_sent,
        scheduled: report.queue_stats.scheduled,
        cancelled: report.queue_stats.cancelled,
        popped: report.queue_stats.popped,
        end_time_bits: report.end_time.as_secs().to_bits(),
        trace_hash: fnv1a(render_trace(&rec).as_bytes()),
    };
    // Recording is an observer: the unrecorded run reports the same.
    let plain = RingBench {
        record: false,
        ..bench
    };
    let (unrecorded, _) = plain.execute(plain.network(seed));
    assert_eq!(report, unrecorded, "recording perturbed {}", bench.name);
    stats
}

/// Same input twice, then at 1 and 2 shards: all identical.
fn assert_ring_deterministic(bench: RingBench) -> SimStats {
    let seed = bench.input(1, 0);
    let first = ring_stats(bench, seed);
    assert_eq!(first, ring_stats(bench, seed), "{} repeat", bench.name);
    for shards in [1, 2] {
        let other = RingBench { shards, ..bench };
        assert_eq!(
            first,
            ring_stats(other, seed),
            "{} at {shards} shard(s)",
            bench.name
        );
    }
    first
}

#[test]
fn election_seq_is_deterministic() {
    let small = RingBench {
        n: 2_000,
        ..RingBench::SEQ
    };
    let stats = assert_ring_deterministic(small);
    assert_eq!(
        stats,
        SimStats {
            events: 6004,
            messages: 4000,
            scheduled: 8003,
            cancelled: 1999,
            popped: 6004,
            end_time_bits: 4666528107897409389,
            trace_hash: 3308794982596718315,
        }
    );
}

#[test]
fn election_sharded_is_deterministic() {
    let small = RingBench {
        n: 5_000,
        ..RingBench::SHARDED
    };
    let stats = assert_ring_deterministic(small);
    assert_eq!(
        stats,
        SimStats {
            events: 10170,
            messages: 4221,
            scheduled: 15170,
            cancelled: 978,
            popped: 10170,
            end_time_bits: 4611686018427387904,
            trace_hash: 10191306057978635900,
        }
    );
}

#[test]
fn trace_replay_is_deterministic() {
    let small = RingBench {
        n: 5_000,
        ..RingBench::TRACE
    };
    let stats = assert_ring_deterministic(small);
    assert_eq!(
        stats,
        SimStats {
            events: 15144,
            messages: 6655,
            scheduled: 20144,
            cancelled: 1474,
            popped: 15144,
            end_time_bits: 4616189618054758400,
            trace_hash: 8655370812142356881,
        }
    );
}

/// The three sweeps' metric documents of one reduced input, joined.
fn sweep_doc(mix: SweepMix, shards: u32) -> String {
    let off = Tracer::off();
    let ctx = SpanCtx::root(0);
    let base_seed = input_seed(1, "sweep_mix", 0);
    let mut doc = String::new();
    for (scenario, compiled) in mix.compile(base_seed, &off, ctx) {
        let compiled = compiled.with_shards(shards);
        let outcome: SweepOutcome = mix
            .sweep(&compiled, "statesync.cell", &off, ctx)
            .expect("no cell panics");
        assert_eq!(check(&scenario, &outcome), Vec::<String>::new());
        doc.push_str(&outcome.metrics_json());
    }
    doc
}

#[test]
fn sweep_mix_is_deterministic() {
    let small = SweepMix {
        benor_seeds: 1,
        brb_seeds: 1,
        antientropy_seeds: 1,
        key_space: 64,
        workers: 1,
    };
    let doc = sweep_doc(small, 1);
    assert_eq!(doc, sweep_doc(small, 1), "repeat");
    let two_workers = SweepMix {
        workers: 2,
        ..small
    };
    assert_eq!(doc, sweep_doc(two_workers, 1), "2 workers");
    assert_eq!(doc, sweep_doc(small, 2), "2 shards");
    assert_eq!(fnv1a(doc.as_bytes()), 5948151508474044835);
}
