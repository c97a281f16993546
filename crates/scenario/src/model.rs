//! The scenario data model: what a `.abes` file denotes.
//!
//! A [`Scenario`] is a pure description — no simulator types appear here.
//! Parsing ([`crate::parse()`]) produces one, printing
//! ([`Scenario::print`](crate::Scenario::print)) renders the canonical
//! text form, and compilation ([`crate::compile()`]) lowers it onto the
//! `abe-sweep` engine. Keeping the model free of simulator handles is
//! what makes scenarios comparable, printable, and fuzzable as plain
//! data.
//!
//! Axis names form a **closed vocabulary** — each name fixes both the
//! value type and the configuration knob it drives:
//!
//! | axis         | type | drives                                       |
//! |--------------|------|----------------------------------------------|
//! | `n`          | u32  | ring size                                    |
//! | `topo`       | str  | ring kind (`uni-ring` / `bidi-ring`)         |
//! | `churn`      | u32  | churn events in the fault plan               |
//! | `budget`     | f64  | adversary tampering budget                   |
//! | `strategy`   | str  | adversary strategy                           |
//! | `divergence` | f64  | anti-entropy fresh-write fraction            |
//! | `delay`      | str  | delay family (`exp` / `uniform` / `det`), all calibrated to the `delay @delay mean=M` mean |

use std::error::Error;
use std::fmt;

pub use abe_core::fault::OutcomeClass;

/// Default event cap per cell, mirroring the `RunSpec` default so a
/// scenario without a `max-events` directive behaves exactly like a
/// hand-written experiment without `.max_events(..)`.
pub const DEFAULT_MAX_EVENTS: u64 = abe_core::RunSpec::DEFAULT_MAX_EVENTS;

/// Default burst probability for the `burst` adversary strategy
/// (matches the hand-written `e17` experiment).
pub const DEFAULT_BURST_P: f64 = 0.05;

/// Default Pareto shape for the `swap` / `adaptive` adversary delay
/// resampling distribution (matches the hand-written `e17` experiment).
pub const DEFAULT_PARETO_SHAPE: f64 = 2.5;

/// Which protocol a scenario runs: a ring election, or a consensus
/// protocol on the complete graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// The paper's algorithm with the calibrated knockout constant `a`.
    AbeCalibrated {
        /// Knockout distribution constant (the paper's `a`).
        a: f64,
    },
    /// The paper's algorithm with an explicit initial estimate `a0`.
    Abe {
        /// Initial network-size estimate.
        a0: f64,
    },
    /// Itai–Rodeh baseline.
    ItaiRodeh,
    /// Chang–Roberts baseline (unidirectional rings only).
    ChangRoberts,
    /// Peterson baseline (unidirectional rings only).
    Peterson,
    /// Ben-Or binary consensus with split inputs (complete graph only,
    /// recorded with `record consensus`).
    Benor,
    /// Bracha reliable broadcast, node 0 broadcasting (complete graph
    /// only, recorded with `record consensus`).
    Brb,
    /// Anti-entropy state sync: replicas reconcile keyed versioned
    /// state via Merkle-style digest exchange (complete graph only,
    /// recorded with `record sync`, paired with a `divergence`
    /// directive).
    Antientropy {
        /// Key universe size each replica's store draws from.
        key_space: u32,
    },
}

impl ProtocolSpec {
    /// Whether this is a consensus protocol (complete-graph family).
    pub fn is_consensus(&self) -> bool {
        matches!(self, ProtocolSpec::Benor | ProtocolSpec::Brb)
    }

    /// Whether this is the anti-entropy state-sync workload.
    pub fn is_sync(&self) -> bool {
        matches!(self, ProtocolSpec::Antientropy { .. })
    }
}

/// Network topology: a fixed ring, the complete graph (consensus), or
/// driven by a `topo` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Unidirectional ring.
    UniRing,
    /// Bidirectional ring.
    BidiRing,
    /// Complete graph `K_n` (consensus protocols only).
    Complete,
    /// Taken from the `topo` axis (written `topology @topo`).
    Axis,
}

/// Channel delay distribution. Every variant corresponds to one
/// constructor in `abe_core::delay`, and every parameter is a mean /
/// shape in the same units the hand-written experiments use.
#[derive(Debug, Clone, PartialEq)]
pub enum DelaySpec {
    /// Exponential with the given mean.
    Exponential {
        /// Mean delay.
        mean: f64,
    },
    /// Deterministic (constant) delay.
    Deterministic {
        /// The constant delay value.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Pareto with the given shape, scaled to the given mean.
    Pareto {
        /// Tail shape (must exceed 1 for a finite mean).
        shape: f64,
        /// Mean delay.
        mean: f64,
    },
    /// Weibull with the given shape, scaled to the given mean.
    Weibull {
        /// Shape parameter.
        shape: f64,
        /// Mean delay.
        mean: f64,
    },
    /// Taken from the `delay` axis (written `delay @delay mean=M`):
    /// each axis value names a family (`exp` / `uniform` / `det`),
    /// every family calibrated to the given mean.
    Axis {
        /// Expected delay every family is calibrated to.
        mean: f64,
    },
}

/// A parameter that is either fixed in the stanza or bound to a grid
/// axis (written `@<axis>` in the text form).
#[derive(Debug, Clone, PartialEq)]
pub enum Bind<T> {
    /// The parameter has this value in every cell.
    Fixed(T),
    /// The parameter takes the cell's value of the corresponding axis.
    Axis,
}

/// Churn fault plan: `events` crash/rejoin events uniformly over
/// `[0, horizon)`, each node down for `downtime`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Number of churn events, fixed or from the `churn` axis.
    pub events: Bind<u32>,
    /// Time horizon over which events are scheduled.
    pub horizon: f64,
    /// How long each churned node stays down.
    pub downtime: f64,
}

/// Scheduling adversary plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    /// Strategy name (`none` / `swap` / `burst` / `reorder` /
    /// `adaptive`), fixed or from the `strategy` axis.
    pub strategy: Bind<String>,
    /// Tampering budget, fixed or from the `budget` axis.
    pub budget: Bind<f64>,
    /// Per-message tampering probability for the `burst` strategy.
    pub burst_p: f64,
    /// Pareto shape for `swap` / `adaptive` delay resampling.
    pub pareto_shape: f64,
}

/// Grid filter: drop cells where `axis = value` except at
/// `only_axis = only_value`. This is how e17 keeps a single baseline
/// column (`strategy=none` exists only at `budget=1`).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    /// Axis whose cells are restricted.
    pub axis: String,
    /// The restricted value of that axis (text form, e.g. `none` or `0`).
    pub value: String,
    /// Axis the restriction is keyed on.
    pub only_axis: String,
    /// The single value of `only_axis` at which restricted cells survive.
    pub only_value: String,
}

/// Which per-cell metric set the compiled runner records. Each mode
/// replicates the metric set of one hand-written experiment family, so
/// declarative ports stay byte-comparable with their `e*.rs` originals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// e1-style election metrics: `knockouts`, `messages`, `time`,
    /// `ticks`, `leaders`, plus the full event-counter report.
    Election,
    /// e14-style fault classification: outcome-class indicator metrics
    /// plus survivor-only `messages_ok` / `time_ok` and fault telemetry.
    Classified,
    /// e17-style adversary metrics: election metrics plus adversary
    /// telemetry (spent budget, violations) on tampered cells.
    Adversary,
    /// e19/e20-style consensus metrics: outcome-class indicators
    /// (`decided` / `stalled` / `agreement_violation` /
    /// `validity_violation`) plus progress and complexity metrics, with
    /// fault and adversary telemetry where the stanzas apply.
    Consensus,
    /// e21/e22-style anti-entropy metrics: `converged` /
    /// `residual_divergence` indicators, rounds, wire bytes, the
    /// digest/leaf/entry counters, and the `invented` no-invention
    /// metric, with fault and adversary telemetry where the stanzas
    /// apply.
    Sync,
}

impl RecordMode {
    /// Stable lower-case name used in the text form and campaign JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordMode::Election => "election",
            RecordMode::Classified => "classified",
            RecordMode::Adversary => "adversary",
            RecordMode::Consensus => "consensus",
            RecordMode::Sync => "sync",
        }
    }
}

/// Declared expected outcome of every cell, checked by the campaign and
/// fuzz oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every cell must end in exactly this class. Violation classes
    /// (wrong-leader, agreement-violation, validity-violation) are not
    /// accepted even when declared — declaring one documents a known-bad
    /// scenario, but the oracle still reports each such cell.
    Class(OutcomeClass),
    /// Cells may make progress or stall (faulty runs legitimately lose
    /// the election token or starve a quorum); the violation classes
    /// are still violations.
    Mixed,
}

impl Expectation {
    /// Stable lower-case name used in the text form and campaign JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Expectation::Class(c) => c.as_str(),
            Expectation::Mixed => "mixed",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn from_name(name: &str) -> Option<Self> {
        if name == "mixed" {
            return Some(Expectation::Mixed);
        }
        OutcomeClass::from_name(name).map(Expectation::Class)
    }
}

/// One grid axis: a name from the closed vocabulary and its values.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Axis name (`n`, `topo`, `churn`, `budget`, `strategy`,
    /// `divergence`, `delay`).
    pub name: String,
    /// The axis values, typed by the axis name.
    pub values: AxisValues,
}

/// Axis values; the variant is determined by the axis name.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Integer axis (`n`, `churn`).
    U32(Vec<u32>),
    /// Float axis (`budget`, `divergence`).
    F64(Vec<f64>),
    /// String axis (`topo`, `strategy`, `delay`).
    Str(Vec<String>),
}

impl AxisValues {
    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::U32(v) => v.len(),
            AxisValues::F64(v) => v.len(),
            AxisValues::Str(v) => v.len(),
        }
    }

    /// True when the axis has no values (always a compile error).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete declarative experiment.
///
/// Invariants beyond what the types enforce (checked by
/// [`crate::compile()`], not the constructor, so that scenarios remain
/// plain data):
///
/// * exactly one of `n` / an `n` axis is present;
/// * axis names are unique and from the closed vocabulary;
/// * every `Bind::Axis` has its axis and every driving axis (`churn`,
///   `budget`, `strategy`, `topo`) has its consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used for golden filenames and reports).
    pub name: String,
    /// The protocol under test (election or consensus).
    pub protocol: ProtocolSpec,
    /// Channel delay distribution.
    pub delay: DelaySpec,
    /// Network topology, fixed or axis-driven.
    pub topology: TopologySpec,
    /// Fixed network size; `None` when driven by an `n` axis.
    pub n: Option<u32>,
    /// Declared consensus fault budget `f`; `None` derives the largest
    /// legal budget `(n - 1) / 3` per cell. Only valid with consensus
    /// protocols.
    pub faulty: Option<u32>,
    /// Anti-entropy fresh-write fraction, fixed or from the
    /// `divergence` axis. Required with (and only valid with)
    /// `protocol antientropy`.
    pub divergence: Option<Bind<f64>>,
    /// Grid axes, in declaration order.
    pub axes: Vec<AxisSpec>,
    /// Seed repetitions per grid point.
    pub seeds: u64,
    /// Base seed mixed into every cell seed (default 0).
    pub base_seed: u64,
    /// Per-cell simulator event cap (default [`DEFAULT_MAX_EVENTS`]).
    pub max_events: u64,
    /// Optional churn fault plan.
    pub fault: Option<FaultSpec>,
    /// Optional scheduling adversary.
    pub adversary: Option<AdversarySpec>,
    /// Optional grid filter.
    pub filter: Option<FilterSpec>,
    /// Metric set recorded per cell.
    pub record: RecordMode,
    /// Declared outcome class, checked by the oracles.
    pub expect: Expectation,
}

/// Structured scenario error: every failure names either the offending
/// source line (parse) or the offending field (compile/semantic), so
/// fuzzed scenarios can assert "compiles or explains itself" without
/// string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text form is malformed at `line` (1-based).
    Syntax {
        /// 1-based line number in the `.abes` source.
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// A field has an invalid or inconsistent value.
    Field {
        /// Dotted field path, e.g. `delay.mean` or `axis.budget`.
        field: String,
        /// Why the value is rejected.
        message: String,
    },
    /// A required directive or field is missing entirely.
    Missing {
        /// Dotted field path of the absent field.
        field: String,
    },
}

impl ScenarioError {
    /// Convenience constructor for [`ScenarioError::Field`].
    pub fn field(field: &str, message: impl Into<String>) -> Self {
        ScenarioError::Field {
            field: field.to_string(),
            message: message.into(),
        }
    }

    /// The offending field path, when the error is about a field.
    pub fn field_name(&self) -> Option<&str> {
        match self {
            ScenarioError::Syntax { .. } => None,
            ScenarioError::Field { field, .. } | ScenarioError::Missing { field } => Some(field),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ScenarioError::Field { field, message } => {
                write!(f, "field `{field}`: {message}")
            }
            ScenarioError::Missing { field } => {
                write!(f, "missing required field `{field}`")
            }
        }
    }
}

impl Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_names_round_trip() {
        for name in ["completed", "stalled", "wrong-leader", "mixed"] {
            let e = Expectation::from_name(name).unwrap();
            assert_eq!(e.as_str(), name);
        }
        assert_eq!(Expectation::from_name("nope"), None);
    }

    #[test]
    fn errors_expose_field_paths() {
        let e = ScenarioError::field("delay.mean", "must be positive");
        assert_eq!(e.field_name(), Some("delay.mean"));
        assert_eq!(e.to_string(), "field `delay.mean`: must be positive");
        let s = ScenarioError::Syntax {
            line: 3,
            message: "unknown directive `frotz`".into(),
        };
        assert_eq!(s.field_name(), None);
        let m = ScenarioError::Missing {
            field: "protocol".into(),
        };
        assert_eq!(m.to_string(), "missing required field `protocol`");
    }

    #[test]
    fn axis_values_len() {
        assert_eq!(AxisValues::U32(vec![8, 16]).len(), 2);
        assert!(AxisValues::Str(vec![]).is_empty());
    }
}
