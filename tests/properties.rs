//! Property-based tests (proptest) over the whole stack: algorithm
//! invariants, delay-model laws, kernel ordering, and statistics.

use std::sync::Arc;

use proptest::prelude::*;

use abe_networks::core::delay::{
    DelayModel, Deterministic, Exponential, Hyperexponential, Pareto, Retransmission, Uniform,
};
use abe_networks::core::{NetworkBuilder, Topology};
use abe_networks::election::{AbeElection, ElectionState, RingConfig, Substrate};
use abe_networks::sim::{EventQueue, RunLimits, SimTime, Xoshiro256PlusPlus};
use abe_networks::stats::Online;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline safety property: for arbitrary ring size, activation
    /// budget, and seed, the election terminates with exactly one leader,
    /// all other nodes non-leader, and hop knowledge never exceeding n.
    #[test]
    fn election_unique_leader_and_bounded_d(
        n in 1u32..40,
        a in 0.05f64..8.0,
        seed in any::<u64>(),
    ) {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(n).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .build(|_| AbeElection::calibrated(n, a).unwrap())
            .unwrap();
        let (report, net) = net.run(RunLimits::events(3_000_000));
        prop_assert!(report.outcome.is_stopped(), "did not elect within budget");
        let mut leaders = 0;
        for p in net.protocols() {
            if p.state() == ElectionState::Leader {
                leaders += 1;
            }
            prop_assert!(p.d() <= n, "d = {} exceeds n = {n}", p.d());
        }
        prop_assert_eq!(leaders, 1);
        prop_assert_eq!(report.counter("elected"), 1);
        // Conservation: every send is an activation or a forward of some kind.
        let sends = report.counter("activations")
            + report.counter("knockouts")
            + report.counter("forwards");
        prop_assert_eq!(sends, report.messages_sent);
    }

    /// Knockouts are bounded by n-1 (each node goes passive at most once).
    #[test]
    fn knockouts_bounded(n in 2u32..32, seed in any::<u64>()) {
        let outcome = abe_networks::election::run_abe_calibrated(
            &RingConfig::new(n).seed(seed),
            1.0,
        );
        prop_assert!(outcome.report.counter("knockouts") < u64::from(n));
    }

    /// Delay models: samples are finite, non-negative, and respect the
    /// declared support bound.
    #[test]
    fn delay_samples_respect_support(
        mean in 0.01f64..100.0,
        seed in any::<u64>(),
    ) {
        let models: Vec<Arc<dyn DelayModel>> = vec![
            Arc::new(Deterministic::new(mean).unwrap()),
            Arc::new(Uniform::from_mean(mean, 0.5).unwrap()),
            Arc::new(Exponential::from_mean(mean).unwrap()),
            Arc::new(Pareto::from_mean(2.5, mean).unwrap()),
            Arc::new(Hyperexponential::new(&[(0.5, mean), (0.5, mean)]).unwrap()),
        ];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for model in models {
            for _ in 0..200 {
                let s = model.sample(&mut rng);
                prop_assert!(s.as_secs().is_finite());
                prop_assert!(s.as_secs() >= 0.0);
                if let Some(bound) = model.upper_bound() {
                    prop_assert!(s <= bound, "{} sample above bound", model.name());
                }
            }
        }
    }

    /// The retransmission channel's attempts are ≥ 1 and the analytic mean
    /// is slot/p for every valid (p, slot).
    #[test]
    fn retransmission_laws(
        p in 0.01f64..=1.0,
        slot in 0.01f64..10.0,
        seed in any::<u64>(),
    ) {
        let model = Retransmission::new(p, slot).unwrap();
        prop_assert!((model.mean().as_secs() - slot / p).abs() < 1e-9);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(model.sample_attempts(&mut rng) >= 1);
        }
    }

    /// Event queue: popping yields a non-decreasing time sequence and
    /// returns exactly the scheduled events.
    #[test]
    fn queue_is_a_total_order(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut seen = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            seen.push(i);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    }

    /// Welford matches the naive two-pass computation.
    #[test]
    fn online_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..100)) {
        let acc: Online = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((acc.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((acc.sample_variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
    }

    /// Ring topologies: every node has degree 1/1 and the graph is
    /// strongly connected with diameter n-1.
    #[test]
    fn ring_invariants(n in 1u32..200) {
        let ring = Topology::unidirectional_ring(n).unwrap();
        prop_assert_eq!(ring.node_count(), n);
        prop_assert_eq!(ring.edge_count(), n as usize);
        for node in ring.nodes() {
            prop_assert_eq!(ring.out_degree(node), 1);
            prop_assert_eq!(ring.in_degree(node), 1);
        }
        prop_assert!(ring.is_strongly_connected());
        prop_assert_eq!(ring.diameter(), Some(n.saturating_sub(1)));
    }

    /// Seed streams never collide across (domain, index) pairs in
    /// realistic ranges.
    #[test]
    fn seed_stream_injective(master in any::<u64>()) {
        use abe_networks::sim::SeedStream;
        let root = SeedStream::new(master);
        let mut seen = std::collections::HashSet::new();
        for domain in ["node", "channel", "clock"] {
            for i in 0..50u64 {
                prop_assert!(seen.insert(root.child_seed(domain, i)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The echo wave computes the exact sum on arbitrary connected
    /// symmetric random graphs, for any seed and delay mean.
    #[test]
    fn echo_sums_on_random_graphs(
        n in 2u32..24,
        p in 0.2f64..0.9,
        topo_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        use abe_networks::wave::Echo;
        let mut topo_rng = Xoshiro256PlusPlus::seed_from_u64(topo_seed);
        let topo = match Topology::erdos_renyi_symmetric(n, p, &mut topo_rng, 50) {
            Ok(t) => t,
            Err(_) => return Ok(()), // sparse + unlucky: skip, not a failure
        };
        let net = NetworkBuilder::new(topo)
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(run_seed)
            .build(|i| Echo::new(i == 0, i as u64 + 1))
            .unwrap();
        let (report, net) = net.run(RunLimits::events(2_000_000));
        prop_assert!(report.outcome.is_stopped());
        let expected: u64 = (1..=u64::from(n)).sum();
        prop_assert_eq!(net.node(0).result(), Some(expected));
    }

    /// Flooding sends exactly one message per edge on any strongly
    /// connected graph.
    #[test]
    fn flood_message_count_is_edge_count(
        n in 2u32..32,
        seed in any::<u64>(),
    ) {
        use abe_networks::wave::Flood;
        let topo = Topology::bidirectional_ring(n).unwrap();
        let edges = topo.edge_count() as u64;
        let net = NetworkBuilder::new(topo)
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .build(|i| Flood::new(i == 0, 5))
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        prop_assert_eq!(report.messages_sent, edges);
        prop_assert!(net.protocols().all(|f| f.payload() == Some(5)));
    }

    /// Peterson elects exactly one leader for arbitrary id permutations.
    #[test]
    fn peterson_unique_leader(n in 1u32..24, seed in any::<u64>()) {
        let outcome = abe_networks::election::run_peterson(
            &RingConfig::new(n).seed(seed),
        );
        prop_assert!(outcome.terminated);
        prop_assert_eq!(outcome.leaders, 1);
    }
}
