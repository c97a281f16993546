//! The run substrate every workload shares.
//!
//! Definition 1 describes one ABE network — delays bounded in
//! expectation, clocks of bounded drift, a processing time — that every
//! algorithm runs on unchanged. [`RunSpec`] is that substrate as a value:
//! the delay model, clocks, seed, channel discipline, fault and adversary
//! plans, run limits, shard count and recording budget. The workload
//! configurations (ring elections, consensus, state sync) embed one and
//! add only their own fields; the [`Substrate`] trait gives all of them
//! the same chained setters.
//!
//! ```
//! use abe_core::{Ctx, InPort, OutPort, Protocol, RunSpec, Substrate, Topology};
//!
//! #[derive(Debug, Clone)]
//! struct Relay(u32);
//! impl Protocol for Relay {
//!     type Message = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         ctx.send(OutPort(0), ());
//!     }
//!     fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
//!         if self.0 > 0 {
//!             self.0 -= 1;
//!             ctx.send(OutPort(0), ());
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = RunSpec::new().seed(7).fifo(true).max_time(100.0);
//! let net = spec
//!     .network(Topology::unidirectional_ring(4)?)
//!     .build(|_| Relay(3))?;
//! let (report, _net, telemetry) = spec.run(net);
//! assert_eq!(report.messages_sent, 16);
//! assert!(telemetry.is_none());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use abe_sim::{RunLimits, SimTime};
use abe_telemetry::{Recording, RunRecorder};

use crate::adversary::AdversaryPlan;
use crate::builder::NetworkBuilder;
use crate::clock::ClockSpec;
use crate::delay::{Exponential, SharedDelay};
use crate::fault::FaultPlan;
use crate::net::{Network, NetworkReport};
use crate::protocol::Protocol;
use crate::topology::Topology;

/// The substrate of one run: everything about a network and its
/// execution that does not depend on the algorithm running on it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Delay model applied to every edge (defaults to exponential with
    /// mean 1).
    pub delay: SharedDelay,
    /// Clock population (defaults to perfect clocks).
    pub clocks: ClockSpec,
    /// Master seed for the run (defaults to 0).
    pub seed: u64,
    /// FIFO channels (defaults to `false`: arbitrary reordering).
    pub fifo: bool,
    /// Event budget (defaults to 5,000,000); a run exceeding it ends
    /// with [`abe_sim::RunOutcome::MaxEvents`].
    pub max_events: u64,
    /// Optional virtual-time horizon (seconds); `None` runs to the event
    /// budget, a stop request, or quiescence.
    pub max_time: Option<f64>,
    /// Fault-injection plan (defaults to empty: no faults).
    pub fault: FaultPlan,
    /// Scheduling-adversary plan (defaults to empty: oblivious delays).
    pub adversary: AdversaryPlan,
    /// Shard count for deterministic parallel execution (defaults to 1:
    /// sequential). Any value produces an identical [`NetworkReport`];
    /// see [`crate::shard`].
    pub shards: u32,
    /// Optional telemetry recording budget (defaults to `None`: no
    /// recording). Recording never perturbs the run; [`RunSpec::run`]
    /// hands the captured recorder back.
    pub record: Option<Recording>,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            delay: Arc::new(Exponential::from_mean(1.0).expect("1.0 is a valid mean")),
            clocks: ClockSpec::perfect(),
            seed: 0,
            fifo: false,
            max_events: Self::DEFAULT_MAX_EVENTS,
            max_time: None,
            fault: FaultPlan::new(),
            adversary: AdversaryPlan::none(),
            shards: 1,
            record: None,
        }
    }
}

impl RunSpec {
    /// The default event budget.
    pub const DEFAULT_MAX_EVENTS: u64 = 5_000_000;

    /// The default substrate: exponential delays of mean 1, perfect
    /// clocks, seed 0, non-FIFO channels, 5,000,000 events, no horizon,
    /// no faults, no adversary, one shard, no recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`NetworkBuilder`] for `topo` carrying this substrate.
    pub fn network(&self, topo: Topology) -> NetworkBuilder {
        let builder = NetworkBuilder::new(topo)
            .delay_shared(Arc::clone(&self.delay))
            .clocks(self.clocks)
            .fifo(self.fifo)
            .seed(self.seed)
            .fault(self.fault.clone())
            .adversary(self.adversary.clone())
            .shards(self.shards);
        match &self.record {
            Some(r) => builder.record(r.clone()),
            None => builder,
        }
    }

    /// The event budget and optional horizon as [`RunLimits`].
    pub fn limits(&self) -> RunLimits {
        let limits = RunLimits::events(self.max_events);
        match self.max_time {
            Some(t) => limits.with_max_time(SimTime::from_secs(t)),
            None => limits,
        }
    }

    /// Runs `net` (built from [`network`](Self::network)) under this
    /// spec's limits and returns the report, the final network and the
    /// recorder taken from it (`None` unless [`record`](Self::record) is
    /// set).
    ///
    /// Always goes through [`Network::run_sharded`], which runs
    /// sequentially for one shard and for adversary runs.
    pub fn run<P>(&self, net: Network<P>) -> (NetworkReport, Network<P>, Option<Box<RunRecorder>>)
    where
        P: Protocol + Clone + Send,
        P::Message: Send,
    {
        let (report, mut net) = net.run_sharded(self.limits());
        let telemetry = net.take_telemetry();
        (report, net, telemetry)
    }
}

/// Chained setters for a value that carries a [`RunSpec`].
///
/// Implemented by [`RunSpec`] itself and by every workload configuration
/// that embeds one, so `Config::new(..).seed(..).fault(..)` reads the same
/// for every workload.
pub trait Substrate: Sized {
    /// The embedded substrate.
    fn spec_mut(&mut self) -> &mut RunSpec;

    /// Replaces the delay model.
    fn delay(mut self, delay: SharedDelay) -> Self {
        self.spec_mut().delay = delay;
        self
    }

    /// Replaces the clock specification.
    fn clocks(mut self, clocks: ClockSpec) -> Self {
        self.spec_mut().clocks = clocks;
        self
    }

    /// Sets the master seed.
    fn seed(mut self, seed: u64) -> Self {
        self.spec_mut().seed = seed;
        self
    }

    /// Enables FIFO channels.
    fn fifo(mut self, fifo: bool) -> Self {
        self.spec_mut().fifo = fifo;
        self
    }

    /// Replaces the event budget. Fault experiments lower it: a run that
    /// loses a token or a quorum can livelock, so stalls are detected by
    /// exhausting the budget rather than by quiescence.
    fn max_events(mut self, max_events: u64) -> Self {
        self.spec_mut().max_events = max_events;
        self
    }

    /// Caps the run at a virtual-time horizon (seconds), for
    /// fixed-duration measurements that should end at `MaxTime` rather
    /// than at a protocol-dependent stop.
    ///
    /// # Panics
    ///
    /// Panics if `max_time` is not finite and non-negative.
    #[track_caller]
    fn max_time(mut self, max_time: f64) -> Self {
        assert!(
            max_time.is_finite() && max_time >= 0.0,
            "max_time must be finite and non-negative, got {max_time}"
        );
        self.spec_mut().max_time = Some(max_time);
        self
    }

    /// Installs a fault-injection plan for the run.
    fn fault(mut self, fault: FaultPlan) -> Self {
        self.spec_mut().fault = fault;
        self
    }

    /// Installs a budgeted scheduling-adversary plan for the run.
    fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.spec_mut().adversary = adversary;
        self
    }

    /// Sets the shard count for deterministic parallel execution (see
    /// [`crate::shard`]); `1` (the default) runs sequentially.
    fn shards(mut self, shards: u32) -> Self {
        self.spec_mut().shards = shards.max(1);
        self
    }

    /// Enables telemetry recording for the run (see [`Recording`]).
    fn record(mut self, record: Recording) -> Self {
        self.spec_mut().record = Some(record);
        self
    }
}

impl Substrate for RunSpec {
    fn spec_mut(&mut self) -> &mut RunSpec {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, SendView};
    use crate::clock::DriftMode;
    use crate::delay::Uniform;
    use crate::protocol::{Ctx, InPort, OutPort};
    use abe_sim::Xoshiro256PlusPlus;

    /// Every node sends `left` pings, one per tick, on both ring ports.
    #[derive(Debug, Clone)]
    struct Chatter {
        left: u32,
    }

    impl Protocol for Chatter {
        type Message = u32;
        fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(OutPort(0), self.left);
                ctx.send(OutPort(1), self.left);
            }
        }
        fn on_message(&mut self, _from: InPort, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.count("received", 1);
        }
        fn wants_tick(&self) -> bool {
            self.left > 0
        }
    }

    /// Proposes twice the sampled delay.
    #[derive(Debug, Clone)]
    struct Double;

    impl Adversary for Double {
        fn name(&self) -> &'static str {
            "double"
        }
        fn delay(&mut self, send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
            2.0 * send.sampled
        }
        fn box_clone(&self) -> Box<dyn Adversary> {
            Box::new(self.clone())
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_horizon_panics() {
        let _ = RunSpec::new().max_time(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_horizon_panics() {
        let _ = RunSpec::new().max_time(-1.0);
    }

    #[test]
    fn every_knob_matches_the_hand_built_run() {
        let n = 8;
        let delay: SharedDelay = Arc::new(Uniform::new(0.5, 1.5).unwrap());
        let clocks = ClockSpec::new(0.8, 1.25, DriftMode::Fixed).unwrap();
        let fault = FaultPlan::churn(n, 3, 10.0, 2.0, 5);
        let adversary = AdversaryPlan::new(4.0, Double).unwrap();
        let spec = RunSpec::new()
            .delay(Arc::clone(&delay))
            .clocks(clocks)
            .seed(11)
            .fifo(true)
            .max_events(20_000)
            .max_time(30.0)
            .fault(fault.clone())
            .adversary(adversary.clone())
            .shards(2)
            .record(Recording::full());
        let topo = || Topology::bidirectional_ring(n).unwrap();
        let node = |_| Chatter { left: 12 };

        let (report, _, telemetry) = spec.run(spec.network(topo()).build(node).unwrap());

        let (expected, mut net) = NetworkBuilder::new(topo())
            .delay_shared(delay)
            .clocks(clocks)
            .seed(11)
            .fifo(true)
            .fault(fault)
            .adversary(adversary)
            .shards(2)
            .record(Recording::full())
            .build(node)
            .unwrap()
            .run(RunLimits::events(20_000).with_max_time(SimTime::from_secs(30.0)));
        assert_eq!(report, expected);
        assert!(report.faults.crashes > 0);
        assert!(report.adversary.intercepted > 0);

        let got: Vec<_> = telemetry
            .expect("recording on")
            .records()
            .cloned()
            .collect();
        let want: Vec<_> = net.take_telemetry().unwrap().records().cloned().collect();
        assert!(!got.is_empty());
        assert_eq!(got, want);
    }
}
