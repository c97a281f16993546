//! Convenience runners: one call from a complete-graph configuration to a
//! safety-classified consensus outcome.
//!
//! The experiment harness, the scenario compiler, and the safety-oracle
//! suite all go through these, so the measurement conventions (what counts
//! as a quorum, which runs are violations) live in exactly one place. The
//! run substrate is the [`RunSpec`] every workload shares, so the
//! setters, defaults and execution path match the ring-election and
//! state-sync runners.

use abe_core::fault::OutcomeClass;
use abe_core::{Network, NetworkReport, Protocol, RunRecorder, RunSpec, Substrate, Topology};
use abe_sim::SeedStream;

use crate::benor::{BenOr, COIN_DOMAIN};
use crate::brb::Brb;
use crate::bv::BvBroadcast;

/// The largest `f` with `n > 3f` — the default crash budget the
/// experiments and the scenario compiler derive from `n` when no
/// `faulty` directive pins one.
///
/// ```
/// use abe_consensus::default_faulty;
/// assert_eq!(default_faulty(4), 1);
/// assert_eq!(default_faulty(10), 3);
/// assert_eq!(default_faulty(1), 0);
/// ```
pub fn default_faulty(n: u32) -> u32 {
    n.saturating_sub(1) / 3
}

/// Configuration of one consensus run on the complete graph `K_n`.
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Node count `n ≥ 1`.
    pub n: u32,
    /// Declared fault budget `f` (quorum sizes derive from it; protocol
    /// runners assert their own resilience bound against it).
    pub f: u32,
    /// The run substrate, set through the [`Substrate`] setters. A
    /// recording budget lands on each outcome's `telemetry` field.
    pub run: RunSpec,
}

impl ConsensusConfig {
    /// A complete graph of size `n` with fault budget `f` on the default
    /// [`RunSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `f ≥ n`.
    pub fn new(n: u32, f: u32) -> Self {
        assert!(n >= 1, "network size must be at least 1");
        assert!(f < n, "fault budget f={f} must be below n={n}");
        Self {
            n,
            f,
            run: RunSpec::new(),
        }
    }

    /// Builds `K_n` with one protocol per node and runs it.
    fn run_nodes<P>(
        &self,
        node: impl FnMut(usize) -> P,
    ) -> (NetworkReport, Network<P>, Option<Box<RunRecorder>>)
    where
        P: Protocol + Clone + Send,
        P::Message: Send,
    {
        let topo = Topology::complete(self.n).expect("n >= 1 was validated");
        let net = self
            .run
            .network(topo)
            .build(node)
            .expect("complete-graph configuration is structurally valid");
        self.run.run(net)
    }
}

impl Substrate for ConsensusConfig {
    fn spec_mut(&mut self) -> &mut RunSpec {
        &mut self.run
    }
}

/// How input bits are assigned across the `n` nodes of a binary-consensus
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputAssignment {
    /// Every node proposes the same bit (strong-validity drill: any other
    /// decision is a validity violation).
    Unanimous(bool),
    /// Odd node ids propose `true`, even ids `false` — the contended case
    /// where the coin has to break symmetry.
    Split,
}

impl InputAssignment {
    /// The input bit of node `i` under this assignment.
    pub fn input(self, i: u32) -> bool {
        match self {
            InputAssignment::Unanimous(b) => b,
            InputAssignment::Split => i % 2 == 1,
        }
    }
}

/// Measured outcome of one Ben-Or run.
#[derive(Debug, Clone)]
pub struct ConsensusOutcome {
    /// Node count.
    pub n: u32,
    /// Declared fault budget.
    pub f: u32,
    /// Per-node input bits.
    pub inputs: Vec<bool>,
    /// Per-node decisions (`None` = still undecided when the run ended).
    pub decisions: Vec<Option<bool>>,
    /// Per-node final round numbers (1-based).
    pub rounds: Vec<u64>,
    /// Per-node decide-step counts (integrity: each must be ≤ 1).
    pub decide_events: Vec<u64>,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
    /// The full network report (counters etc.).
    pub report: NetworkReport,
    /// Captured telemetry, when [`Substrate::record`] enabled recording.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl ConsensusOutcome {
    /// Number of nodes that decided.
    pub fn decided_count(&self) -> u32 {
        self.decisions.iter().filter(|d| d.is_some()).count() as u32
    }

    /// Highest round any node reached — the "rounds to decide" metric
    /// when the run decided.
    pub fn max_round(&self) -> u64 {
        self.rounds.iter().copied().max().unwrap_or(0)
    }

    /// Classifies the run. Violations take precedence over progress:
    ///
    /// * two different decided values → [`OutcomeClass::AgreementViolation`];
    /// * a decided value nobody proposed → [`OutcomeClass::ValidityViolation`];
    /// * at least `n − f` nodes decided → [`OutcomeClass::Decided`];
    /// * otherwise → [`OutcomeClass::Stalled`].
    pub fn class(&self) -> OutcomeClass {
        let decided: Vec<bool> = self.decisions.iter().filter_map(|d| *d).collect();
        if decided.iter().any(|v| decided.iter().any(|w| v != w)) {
            return OutcomeClass::AgreementViolation;
        }
        if decided.iter().any(|v| !self.inputs.contains(v)) {
            return OutcomeClass::ValidityViolation;
        }
        if self.decided_count() >= self.n - self.f {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        }
    }
}

/// Runs Ben-Or binary consensus on `K_n` with the given input assignment.
///
/// Coin flips come from a dedicated per-node [`SeedStream`] child (domain
/// [`COIN_DOMAIN`], index = node id), never from the engine RNG, so runs
/// are bit-identical at any `--threads`/`--shards` setting.
///
/// # Panics
///
/// Panics unless `n > 2f` (the crash-consensus resilience bound).
pub fn run_benor(cfg: &ConsensusConfig, inputs: InputAssignment) -> ConsensusOutcome {
    let coins = SeedStream::new(cfg.run.seed);
    let (n, f) = (cfg.n, cfg.f);
    let (report, net, telemetry) = cfg.run_nodes(|i| {
        let i = i as u32;
        BenOr::new(
            i,
            n,
            f,
            inputs.input(i),
            coins.stream(COIN_DOMAIN, u64::from(i)),
        )
    });
    let nodes = net.into_protocols();
    ConsensusOutcome {
        n,
        f,
        inputs: nodes.iter().map(|p| p.input()).collect(),
        decisions: nodes.iter().map(|p| p.decision()).collect(),
        rounds: nodes.iter().map(|p| p.round()).collect(),
        decide_events: nodes.iter().map(|p| p.decide_events()).collect(),
        time: report.end_time.as_secs(),
        report,
        telemetry,
    }
}

/// Measured outcome of one reliable-broadcast run.
#[derive(Debug, Clone)]
pub struct BrbOutcome {
    /// Node count.
    pub n: u32,
    /// Declared fault budget.
    pub f: u32,
    /// The payload the broadcaster (node 0) flooded.
    pub payload: u32,
    /// Per-node delivered payloads (`None` = not delivered).
    pub delivered: Vec<Option<u32>>,
    /// Per-node local delivery times (seconds).
    pub delivered_at: Vec<Option<f64>>,
    /// Per-node deliver-step counts (integrity: each must be ≤ 1).
    pub deliver_events: Vec<u64>,
    /// Whether any node observed conflicting payloads.
    pub mismatched: bool,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
    /// The full network report (counters etc.).
    pub report: NetworkReport,
    /// Captured telemetry, when [`Substrate::record`] enabled recording.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl BrbOutcome {
    /// Number of nodes that delivered.
    pub fn delivered_count(&self) -> u32 {
        self.delivered.iter().filter(|d| d.is_some()).count() as u32
    }

    /// Latest local delivery time across all delivering nodes — the
    /// delivery-latency metric (`None` when nobody delivered).
    pub fn latency(&self) -> Option<f64> {
        self.delivered_at
            .iter()
            .filter_map(|t| *t)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Classifies the run. Violations take precedence over progress:
    ///
    /// * two nodes delivered different payloads → [`OutcomeClass::AgreementViolation`];
    /// * a delivered payload differs from the broadcast one (or payload
    ///   conflicts were observed) → [`OutcomeClass::ValidityViolation`];
    /// * at least `n − f` nodes delivered → [`OutcomeClass::Decided`];
    /// * otherwise → [`OutcomeClass::Stalled`].
    pub fn class(&self) -> OutcomeClass {
        let delivered: Vec<u32> = self.delivered.iter().filter_map(|d| *d).collect();
        if delivered.iter().any(|v| delivered.iter().any(|w| v != w)) {
            return OutcomeClass::AgreementViolation;
        }
        if self.mismatched || delivered.iter().any(|&v| v != self.payload) {
            return OutcomeClass::ValidityViolation;
        }
        if self.delivered_count() >= self.n - self.f {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        }
    }
}

/// Runs one Bracha reliable-broadcast instance on `K_n`; node 0 is the
/// designated broadcaster flooding `payload`.
///
/// # Panics
///
/// Panics unless `n > 3f` (the Byzantine quorum bound).
pub fn run_brb(cfg: &ConsensusConfig, payload: u32) -> BrbOutcome {
    let (n, f) = (cfg.n, cfg.f);
    let (report, net, telemetry) =
        cfg.run_nodes(|i| Brb::new(i as u32, n, f, (i == 0).then_some(payload)));
    let nodes = net.into_protocols();
    BrbOutcome {
        n,
        f,
        payload,
        delivered: nodes.iter().map(|p| p.delivered()).collect(),
        delivered_at: nodes.iter().map(|p| p.delivered_at()).collect(),
        deliver_events: nodes.iter().map(|p| p.deliver_events()).collect(),
        mismatched: nodes.iter().any(|p| p.mismatched()),
        time: report.end_time.as_secs(),
        report,
        telemetry,
    }
}

/// Measured outcome of one BV-broadcast run.
#[derive(Debug, Clone)]
pub struct BvOutcome {
    /// Node count.
    pub n: u32,
    /// Declared fault budget.
    pub f: u32,
    /// Per-node input bits.
    pub inputs: Vec<bool>,
    /// Per-node `bin_values` sets as `(has_false, has_true)`.
    pub bin_values: Vec<(bool, bool)>,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
    /// The full network report (counters etc.).
    pub report: NetworkReport,
    /// Captured telemetry, when [`Substrate::record`] enabled recording.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl BvOutcome {
    /// Number of nodes whose `bin_values` set is non-empty.
    pub fn filled_count(&self) -> u32 {
        self.bin_values.iter().filter(|(z, o)| *z || *o).count() as u32
    }

    /// Classifies the run:
    ///
    /// * a binned value nobody input → [`OutcomeClass::ValidityViolation`];
    /// * a crash-free quiescent run with *unequal* `bin_values` sets →
    ///   [`OutcomeClass::AgreementViolation`] (BV-broadcast's eventual-
    ///   agreement guarantee is exact once the network is silent);
    /// * at least `n − f` non-empty sets → [`OutcomeClass::Decided`];
    /// * otherwise → [`OutcomeClass::Stalled`].
    pub fn class(&self) -> OutcomeClass {
        let has = |v: bool| self.inputs.contains(&v);
        if self
            .bin_values
            .iter()
            .any(|&(z, o)| (z && !has(false)) || (o && !has(true)))
        {
            return OutcomeClass::ValidityViolation;
        }
        let crash_free = self.report.faults.crashes == 0;
        let quiescent = self.report.outcome == abe_sim::RunOutcome::Quiescent;
        if crash_free && quiescent && self.bin_values.windows(2).any(|w| w[0] != w[1]) {
            return OutcomeClass::AgreementViolation;
        }
        if self.filled_count() >= self.n - self.f {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        }
    }
}

/// Runs one BV-broadcast instance on `K_n` with the given inputs.
///
/// # Panics
///
/// Panics unless `n > 3f` (the Byzantine quorum bound).
pub fn run_bv(cfg: &ConsensusConfig, inputs: InputAssignment) -> BvOutcome {
    let (n, f) = (cfg.n, cfg.f);
    let (report, net, telemetry) = cfg.run_nodes(|i| {
        let i = i as u32;
        BvBroadcast::new(i, n, f, inputs.input(i))
    });
    let nodes = net.into_protocols();
    BvOutcome {
        n,
        f,
        inputs: nodes.iter().map(|p| p.input()).collect(),
        bin_values: nodes.iter().map(|p| p.bin_values()).collect(),
        time: report.end_time.as_secs(),
        report,
        telemetry,
    }
}
