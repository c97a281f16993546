//! End-to-end determinism: identical seeds reproduce identical executions
//! across every layer (kernel, network, algorithms, experiments).

use abe_networks::core::delay::Exponential;
use abe_networks::core::{NetworkBuilder, Topology};
use abe_networks::election::{run_abe_calibrated, run_itai_rodeh, RingConfig, Substrate};
use abe_networks::sim::RunLimits;
use abe_networks::sync::{GraphSynchronizer, Heartbeat, IrSync, SyncRunner};

#[test]
fn election_runs_are_bit_reproducible() {
    for seed in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
        let a = run_abe_calibrated(&RingConfig::new(48).seed(seed), 1.0);
        let b = run_abe_calibrated(&RingConfig::new(48).seed(seed), 1.0);
        assert_eq!(a.messages, b.messages, "seed={seed}");
        assert_eq!(a.time, b.time, "seed={seed}");
        assert_eq!(a.ticks, b.ticks, "seed={seed}");
        assert_eq!(a.report.counters, b.report.counters, "seed={seed}");
    }
}

#[test]
fn different_seeds_differ() {
    let outcomes: Vec<f64> = (0..10)
        .map(|seed| run_abe_calibrated(&RingConfig::new(48).seed(seed), 1.0).time)
        .collect();
    let distinct: std::collections::BTreeSet<u64> = outcomes.iter().map(|t| t.to_bits()).collect();
    assert!(
        distinct.len() >= 9,
        "seeds should yield distinct executions"
    );
}

#[test]
fn itai_rodeh_reproducible() {
    let a = run_itai_rodeh(&RingConfig::new(32).seed(9));
    let b = run_itai_rodeh(&RingConfig::new(32).seed(9));
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.time, b.time);
}

#[test]
fn synchronizer_runs_reproducible() {
    let run = |seed: u64| {
        let net = NetworkBuilder::new(Topology::torus(4, 4).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .build(|_| GraphSynchronizer::new(Heartbeat::new(), 20))
            .unwrap();
        let (report, _) = net.run(RunLimits::unbounded());
        (report.messages_sent, report.end_time)
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn native_sync_runner_reproducible() {
    let run = |seed: u64| {
        let mut runner = SyncRunner::new(Topology::unidirectional_ring(16).unwrap(), seed, |_| {
            IrSync::new(16).unwrap()
        });
        runner.run(1_000_000)
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn permutations_reproducible() {
    use abe_networks::election::random_permutation;
    assert_eq!(random_permutation(100, 7), random_permutation(100, 7));
    assert_ne!(random_permutation(100, 7), random_permutation(100, 8));
}
