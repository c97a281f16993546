//! Convenience runners: one call from a complete-graph configuration to a
//! convergence-classified sync outcome.
//!
//! The experiment harness (`e21`/`e22`), the scenario compiler, and the
//! convergence-oracle suite all go through these, so the measurement
//! conventions (what counts as converged, how residual divergence is
//! defined, which writes exist) live in exactly one place. The run
//! substrate is the [`RunSpec`] every workload shares, so the setters,
//! defaults and execution path match the ring-election and consensus
//! runners.
//!
//! ## Initial divergence
//!
//! Every replica starts with the full base image: key `k` at version 1
//! with the deterministic payload [`base_payload`]`(k)`. Divergence is
//! then injected as `ceil(divergence · key_space)` *fresh writes* —
//! distinct keys at version 2, each placed at exactly one seed-chosen
//! replica — drawn from the dedicated `"statesync-writes"`
//! [`SeedStream`] child, never from the engine RNG, so runs are
//! bit-identical at any `--threads`/`--shards` setting and the complete
//! set of writes that *exist* is known in advance (the no-invention
//! oracle's ground truth).

use std::collections::BTreeMap;

use abe_core::fault::OutcomeClass;
use abe_core::{NetworkReport, Protocol, RunRecorder, RunSpec, Substrate, Topology};
use abe_sim::SeedStream;

use crate::digest::{Digests, DEFAULT_FANOUT, DEFAULT_LEAF_WIDTH};
use crate::protocol::{AntiEntropy, FullExchange};
use crate::store::StateStore;

/// [`SeedStream`] domain of the fresh-write placement stream.
pub const WRITE_DOMAIN: &str = "statesync-writes";

/// The version-1 payload of key `k` in the shared base image
/// (SplitMix64-style finalisation of the key; deterministic and
/// identical on every replica).
pub fn base_payload(k: u32) -> u64 {
    let mut z = u64::from(k).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The version-2 payload a fresh write puts at key `k` (distinct from the
/// base payload, deterministic in the key).
pub fn fresh_payload(k: u32) -> u64 {
    base_payload(k) ^ 0xD1B5_4A32_D192_ED03
}

/// One injected divergence: key `key` written at version 2 on replica
/// `owner` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshWrite {
    /// The written key.
    pub key: u32,
    /// The replica holding the write initially.
    pub owner: u32,
}

/// Configuration of one state-sync run on the complete graph `K_n`.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Node count `n ≥ 1`.
    pub n: u32,
    /// Key universe size `K ≥ 1`.
    pub key_space: u32,
    /// Fraction of the key space receiving a fresh write, in `[0, 1]`.
    pub divergence: f64,
    /// Digest-tree branching factor.
    pub fanout: u32,
    /// Digest-tree leaf width.
    pub leaf_width: u32,
    /// Per-node gossip round budget (bounds ticking at crashed or
    /// persistently partitioned peers).
    pub rounds_cap: u64,
    /// The run substrate, set through the [`Substrate`] setters. A
    /// recording budget lands on [`SyncOutcome::telemetry`].
    pub run: RunSpec,
}

impl SyncConfig {
    /// A complete graph of size `n` over `key_space` keys on the default
    /// [`RunSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `key_space == 0`.
    pub fn new(n: u32, key_space: u32) -> Self {
        assert!(n >= 1, "network size must be at least 1");
        assert!(key_space >= 1, "key space must be non-empty");
        Self {
            n,
            key_space,
            divergence: 0.25,
            fanout: DEFAULT_FANOUT,
            leaf_width: DEFAULT_LEAF_WIDTH,
            rounds_cap: 100 + 20 * u64::from(n),
            run: RunSpec::new(),
        }
    }

    /// Sets the injected divergence fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `divergence` is in `[0, 1]`.
    #[track_caller]
    pub fn divergence(mut self, divergence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&divergence),
            "divergence fraction must be in [0, 1], got {divergence}"
        );
        self.divergence = divergence;
        self
    }

    /// Replaces the digest-tree shape.
    pub fn tree(mut self, fanout: u32, leaf_width: u32) -> Self {
        self.fanout = fanout;
        self.leaf_width = leaf_width;
        self
    }

    /// Replaces the per-node gossip round budget.
    pub fn rounds_cap(mut self, rounds_cap: u64) -> Self {
        self.rounds_cap = rounds_cap;
        self
    }

    /// The digest-tree shape of this configuration.
    pub fn digests(&self) -> Digests {
        Digests::with_shape(self.key_space, self.fanout, self.leaf_width)
    }

    /// The fresh writes this configuration injects: `ceil(divergence ·
    /// key_space)` distinct keys via a partial Fisher–Yates shuffle on
    /// the `"statesync-writes"` stream, each placed at one uniformly
    /// drawn owner replica.
    pub fn fresh_writes(&self) -> Vec<FreshWrite> {
        let count =
            ((self.divergence * f64::from(self.key_space)).ceil() as u32).min(self.key_space);
        let mut rng = SeedStream::new(self.run.seed).stream(WRITE_DOMAIN, 0);
        let mut keys: Vec<u32> = (0..self.key_space).collect();
        let mut writes = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let remaining = keys.len() - i;
            let j = i + ((rng.uniform_f64() * remaining as f64) as usize).min(remaining - 1);
            keys.swap(i, j);
            let owner = ((rng.uniform_f64() * f64::from(self.n)) as u32).min(self.n - 1);
            writes.push(FreshWrite {
                key: keys[i],
                owner,
            });
        }
        writes
    }

    /// The initial store of replica `node`: the full base image plus this
    /// replica's fresh writes.
    pub fn initial_store(&self, node: u32, writes: &[FreshWrite]) -> StateStore {
        let mut store = StateStore::new();
        for k in 0..self.key_space {
            store.write(k, 1, base_payload(k));
        }
        for w in writes {
            if w.owner == node {
                store.write(w.key, 2, fresh_payload(w.key));
            }
        }
        store
    }

    /// Which replicas are up at virtual time `end` under this fault plan
    /// (crash-stopped or mid-outage replicas are down).
    pub fn alive_at(&self, end: f64) -> Vec<bool> {
        let mut alive = vec![true; self.n as usize];
        for w in self.run.fault.crashes() {
            if w.at <= end && w.recover_at.is_none_or(|r| r > end) {
                alive[w.node as usize] = false;
            }
        }
        alive
    }
}

impl Substrate for SyncConfig {
    fn spec_mut(&mut self) -> &mut RunSpec {
        &mut self.run
    }
}

/// Condensed per-run telemetry: the numbers the experiments sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Whether every live replica ended byte-identical.
    pub converged: bool,
    /// Entries still differing from the live-union state, summed over
    /// live replicas (0 iff converged).
    pub residual_divergence: u64,
    /// Highest per-node gossip round count.
    pub rounds: u64,
    /// Data-plane bytes on the wire ([`NetworkReport::payload_bytes`]).
    pub wire_bytes: u64,
    /// Digest/control messages sent (roots, subtree requests, digests).
    pub digest_msgs: u64,
    /// Data messages sent (leaf ranges or full states).
    pub leaf_msgs: u64,
    /// Entries shipped inside data messages.
    pub entries_sent: u64,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
}

/// Measured outcome of one state-sync run.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Node count.
    pub n: u32,
    /// Key universe size.
    pub key_space: u32,
    /// The fresh writes the run injected (ground truth for the
    /// no-invention oracle).
    pub writes: Vec<FreshWrite>,
    /// Per-node final state maps.
    pub states: Vec<BTreeMap<u32, (u64, u64)>>,
    /// Per-node liveness at the end of the run.
    pub alive: Vec<bool>,
    /// Per-node gossip rounds initiated.
    pub rounds: Vec<u64>,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
    /// The full network report (payload bytes, counters, faults).
    pub report: NetworkReport,
    /// Captured telemetry, when [`Substrate::record`] enabled recording.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl SyncOutcome {
    /// The least-upper-bound state of the *live* replicas: every key at
    /// the maximal `(version, payload)` any live replica holds. The
    /// reconciliation target — writes stranded on crash-stopped replicas
    /// are unrecoverable and excluded by construction.
    pub fn live_union(&self) -> BTreeMap<u32, (u64, u64)> {
        let mut union = StateStore::new();
        for (state, alive) in self.states.iter().zip(&self.alive) {
            if !alive {
                continue;
            }
            for (&k, &(v, p)) in state {
                union.write(k, v, p);
            }
        }
        union.into_map()
    }

    /// Entries differing from [`live_union`](Self::live_union), summed
    /// over live replicas. Zero iff all live replicas are byte-identical
    /// (states are mutually `<=` the union, so pairwise equality and
    /// union equality coincide).
    pub fn residual_divergence(&self) -> u64 {
        let union = self.live_union();
        let mut residual = 0;
        for (state, alive) in self.states.iter().zip(&self.alive) {
            if !alive {
                continue;
            }
            residual += union
                .iter()
                .filter(|(k, vp)| state.get(k) != Some(vp))
                .count() as u64;
            // Keys a replica holds beyond the union are impossible (the
            // union is pointwise maximal), so the count above is exact.
        }
        residual
    }

    /// Whether every live replica ended byte-identical.
    pub fn converged(&self) -> bool {
        self.residual_divergence() == 0
    }

    /// Number of live replicas.
    pub fn live_count(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// Classifies the run: [`OutcomeClass::Decided`] when converged,
    /// [`OutcomeClass::Stalled`] otherwise (anti-entropy has no safety
    /// violation class — invented state is checked structurally by the
    /// oracle suite, not classified).
    pub fn class(&self) -> OutcomeClass {
        if self.converged() {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        }
    }

    /// Whether `(key, version, payload)` was ever written by anyone:
    /// the version-1 base image or one of the run's fresh writes.
    pub fn known_write(&self, key: u32, version: u64, payload: u64) -> bool {
        if key >= self.key_space {
            return false;
        }
        match version {
            1 => payload == base_payload(key),
            2 => payload == fresh_payload(key) && self.writes.iter().any(|w| w.key == key),
            _ => false,
        }
    }

    /// Every `(node, key, version, payload)` held by any replica that
    /// nobody ever wrote — must be empty under every schedule.
    pub fn invented(&self) -> Vec<(u32, u32, u64, u64)> {
        let mut out = Vec::new();
        for (i, state) in self.states.iter().enumerate() {
            for (&k, &(v, p)) in state {
                if !self.known_write(k, v, p) {
                    out.push((i as u32, k, v, p));
                }
            }
        }
        out
    }

    /// Condenses the outcome into the per-run telemetry record.
    pub fn sync_report(&self) -> ConvergenceReport {
        ConvergenceReport {
            converged: self.converged(),
            residual_divergence: self.residual_divergence(),
            rounds: self.rounds.iter().copied().max().unwrap_or(0),
            wire_bytes: self.report.payload_bytes,
            digest_msgs: self.report.counter("sync_digest_msgs"),
            leaf_msgs: self.report.counter("sync_leaf_msgs"),
            entries_sent: self.report.counter("sync_entries_sent"),
            time: self.time,
        }
    }
}

/// Builds `K_n` with one replica per node — `replica(i, out_degree,
/// digests, initial_store, rounds_cap)` — runs it, and assembles the
/// outcome from each final protocol state via `split`.
fn run_replicas<P>(
    cfg: &SyncConfig,
    replica: fn(u32, usize, Digests, StateStore, u64) -> P,
    split: fn(P) -> (StateStore, u64),
) -> SyncOutcome
where
    P: Protocol + Clone + Send,
    P::Message: Send,
{
    let digests = cfg.digests();
    let writes = cfg.fresh_writes();
    let out_degree = cfg.n as usize - 1;
    let topo = Topology::complete(cfg.n).expect("n >= 1 was validated");
    let net = cfg
        .run
        .network(topo)
        .build(|i| {
            let i = i as u32;
            replica(
                i,
                out_degree,
                digests,
                cfg.initial_store(i, &writes),
                cfg.rounds_cap,
            )
        })
        .expect("complete-graph configuration is structurally valid");
    let (report, net, telemetry) = cfg.run.run(net);
    let (states, rounds): (Vec<_>, Vec<_>) = net
        .into_protocols()
        .into_iter()
        .map(|p| {
            let (store, rounds) = split(p);
            (store.into_map(), rounds)
        })
        .unzip();
    let time = report.end_time.as_secs();
    SyncOutcome {
        n: cfg.n,
        key_space: cfg.key_space,
        writes,
        states,
        alive: cfg.alive_at(time),
        rounds,
        time,
        report,
        telemetry,
    }
}

/// Runs the Merkle-descent anti-entropy protocol on `K_n`.
pub fn run_antientropy(cfg: &SyncConfig) -> SyncOutcome {
    run_replicas(cfg, AntiEntropy::new, |p| {
        let rounds = p.rounds();
        (p.into_store(), rounds)
    })
}

/// Runs the full-state-exchange reference reconciler on `K_n` — the
/// differential baseline whose final states the Merkle protocol must
/// reproduce exactly.
pub fn run_reference(cfg: &SyncConfig) -> SyncOutcome {
    run_replicas(cfg, FullExchange::new, |p| {
        let rounds = p.rounds();
        (p.into_store(), rounds)
    })
}
