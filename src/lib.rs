//! # abe-networks — asynchronous bounded expected delay networks
//!
//! A complete implementation of the network model, election algorithm, and
//! synchroniser results of *Bakhshi, Endrullis, Fokkink, Pang —
//! "Brief Announcement: Asynchronous Bounded Expected Delay Networks",
//! PODC 2010*, together with the simulation substrate, classic baselines,
//! and the evaluation harness that regenerates every experiment.
//!
//! ## The model in one paragraph
//!
//! An **ABE network** strengthens the asynchronous model with three known
//! bounds (Definition 1): `δ` on the *expected* message delay, `[s_low,
//! s_high]` on local clock speeds, and `γ` on the expected processing time
//! of a local event. Unlike **ABD** networks (hard delay bound), every
//! asynchronous execution is still possible — extremely long delays are
//! merely improbable. The model captures lossy channels (expected delay
//! `slot/p` under retransmission), queueing spikes, and dynamic routing,
//! and yet suffices for *efficient* algorithms: anonymous unidirectional
//! rings elect a leader in expected linear time with expected linearly
//! many messages, beating the `Ω(n log n)` bound of asynchronous rings.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |--------------------|-------|----------|
//! | [`sim`] | `abe-sim` | deterministic discrete-event kernel, PRNG streams |
//! | [`core`](mod@core) | `abe-core` | delay/clock/processing models, topologies, protocol API, network runtime |
//! | [`adversary`] | `abe-adversary` | budgeted scheduling adversaries (Definition 1's adversarial-delay clause) |
//! | [`election`] | `abe-election` | the paper's §3 algorithm, ablation, Itai–Rodeh and Chang–Roberts baselines |
//! | [`consensus`] | `abe-consensus` | Ben-Or binary consensus, Bracha reliable broadcast, BV-broadcast on complete ABE graphs |
//! | [`statesync`] | `abe-statesync` | anti-entropy state sync: versioned stores, Merkle-style digest trees, convergence-classified runners |
//! | [`sync`] | `abe-sync` | graph synchroniser (Theorem 1 floor), ABD synchroniser + violation counting, synchronous Itai–Rodeh |
//! | [`stats`] | `abe-stats` | online moments, complexity-class fitting, tables |
//! | [`telemetry`] | `abe-telemetry` | typed trace events, deterministic histograms, `trace-v1` JSONL, trace analysis |
//! | [`wave`] | `abe-wave` | flooding broadcast and echo/PIF convergecast waves |
//! | [`live`] | `abe-live` | thread-per-node live runtime (crossbeam channels, wall-clock delays) |
//! | [`scenario`] | `abe-scenario` | `.abes` scenario language: parser, compiler, golden-campaign runner, fuzz generator |
//!
//! ## Quickstart
//!
//! ```
//! use abe_networks::election::{run_abe_calibrated, RingConfig, Substrate};
//!
//! // Elect a leader on an anonymous unidirectional ABE ring of 64 nodes.
//! let outcome = run_abe_calibrated(&RingConfig::new(64).seed(2026), 1.0);
//! assert!(outcome.terminated);
//! assert_eq!(outcome.leaders, 1);
//! println!(
//!     "elected in {:.1} time units with {} messages",
//!     outcome.time, outcome.messages
//! );
//! ```
//!
//! See `examples/` for richer scenarios (lossy channels, sensor grids,
//! synchroniser comparisons) and `crates/bench` for the experiment harness
//! behind `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use abe_adversary as adversary;
pub use abe_consensus as consensus;
pub use abe_core as core;
pub use abe_election as election;
pub use abe_live as live;
pub use abe_scenario as scenario;
pub use abe_sim as sim;
pub use abe_statesync as statesync;
pub use abe_stats as stats;
pub use abe_sync as sync;
pub use abe_telemetry as telemetry;
pub use abe_wave as wave;
