//! Deterministic virtual-time histograms over a trace stream.
//!
//! [`HistogramSink`] folds a record stream into fixed-shape aggregates —
//! one delay histogram over all sends, each edge's delay sum and count
//! (for the exact per-edge mean), per-edge in-flight high-water marks,
//! and per-node dispatch counts — using **bit-exact bucketing**: bucket
//! indices come from the raw IEEE-754 exponent (for delays) or the
//! integer bit length (for counts), never from `log2`/`ln`, so the same
//! record stream produces byte-identical aggregates on every platform,
//! thread count, and shard count. Memory is `O(edges + nodes)`
//! regardless of run length, which is what lets sweep cells record
//! aggregates under a bounded telemetry budget.

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::Recorder;

/// Number of logarithmic buckets in every histogram.
pub const BUCKETS: usize = 64;

/// Log-bucket index of a positive delay: bucket 0 holds non-positive
/// values, buckets `1..=63` hold binary orders of magnitude
/// `2^-31 .. 2^31` (clamped at both ends). Derived from the raw IEEE-754
/// exponent bits — a pure bit operation, identical on every platform.
pub fn delay_bucket(delay: f64) -> usize {
    if delay.is_nan() || delay <= 0.0 {
        return 0;
    }
    let biased = ((delay.to_bits() >> 52) & 0x7FF) as i64;
    let rel = (biased - 1023).clamp(-31, 31);
    (rel + 32) as usize
}

/// Log-bucket index of a count: 0 for zero, otherwise the bit length of
/// the value (1 → 1, 2–3 → 2, 4–7 → 3, …), clamped to 63.
pub fn count_bucket(count: u64) -> usize {
    (64 - count.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Per-edge delay statistics: the exact running sum/count used for the
/// empirical Definition-1 audit.
#[derive(Debug, Clone, Default, PartialEq)]
struct EdgeDelay {
    sum: f64,
    count: u64,
}

/// Aggregating recorder: deterministic histograms from the event stream.
///
/// Feed records in trace order (they are order-sensitive only through
/// the in-flight tracking; delay and dispatch aggregates are
/// order-free). Typically driven by
/// [`RunRecorder`](crate::RunRecorder) rather than directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSink {
    /// Delay histogram over all sends (sized on the first send).
    delay_hist: Vec<u64>,
    /// Per-edge exact mean accumulators, indexed by edge id (grown
    /// lazily).
    delays: Vec<EdgeDelay>,
    /// Per-edge currently in-flight message count (sent − terminated).
    inflight: Vec<u64>,
    /// Per-edge high-water of `inflight`.
    inflight_hw: Vec<u64>,
    /// Per-node dispatch counts (start + tick + deliver handlers run).
    dispatches: Vec<u64>,
    /// Records observed.
    observed: u64,
}

impl HistogramSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Highest edge id seen plus one.
    pub fn edge_count(&self) -> usize {
        self.delays.len().max(self.inflight.len())
    }

    /// Highest node id seen plus one.
    pub fn node_count(&self) -> usize {
        self.dispatches.len()
    }

    fn edge_delay(&mut self, edge: u32) -> &mut EdgeDelay {
        let idx = edge as usize;
        if self.delays.len() <= idx {
            self.delays.resize_with(idx + 1, EdgeDelay::default);
        }
        &mut self.delays[idx]
    }

    fn bump_inflight(&mut self, edge: u32, up: bool) {
        let idx = edge as usize;
        if self.inflight.len() <= idx {
            self.inflight.resize(idx + 1, 0);
            self.inflight_hw.resize(idx + 1, 0);
        }
        if up {
            self.inflight[idx] += 1;
            self.inflight_hw[idx] = self.inflight_hw[idx].max(self.inflight[idx]);
        } else {
            // A deliver/drop without a matched send can only happen when a
            // caller feeds a truncated stream; saturate rather than panic.
            self.inflight[idx] = self.inflight[idx].saturating_sub(1);
        }
    }

    fn bump_dispatch(&mut self, node: u32) {
        let idx = node as usize;
        if self.dispatches.len() <= idx {
            self.dispatches.resize(idx + 1, 0);
        }
        self.dispatches[idx] += 1;
    }

    /// Empirical mean of the granted delays on `edge` (`None` before the
    /// first send).
    pub fn edge_mean(&self, edge: u32) -> Option<f64> {
        let slot = self.delays.get(edge as usize)?;
        (slot.count > 0).then(|| slot.sum / slot.count as f64)
    }

    /// The maximum per-edge empirical delay mean — directly comparable
    /// to `BudgetAuditor::max_edge_mean`, since both average the same
    /// granted delays.
    pub fn max_edge_mean(&self) -> f64 {
        self.delays
            .iter()
            .filter(|d| d.count > 0)
            .map(|d| d.sum / d.count as f64)
            .fold(0.0, f64::max)
    }

    /// Delay histogram over all sends on every edge (64 log buckets).
    pub fn delay_buckets(&self) -> Vec<u64> {
        let mut total = self.delay_hist.clone();
        total.resize(BUCKETS, 0);
        total
    }

    /// Histogram of per-edge in-flight high-water marks over edges
    /// (64 log buckets): bucket `k` counts edges whose queue-depth
    /// high-water had bit length `k`.
    pub fn inflight_hw_buckets(&self) -> Vec<u64> {
        let mut total = vec![0u64; BUCKETS];
        for &hw in &self.inflight_hw {
            total[count_bucket(hw)] += 1;
        }
        total
    }

    /// The global queue-depth high-water: the largest per-edge in-flight
    /// high-water mark.
    pub fn max_inflight(&self) -> u64 {
        self.inflight_hw.iter().copied().max().unwrap_or(0)
    }

    /// Histogram of per-node dispatch counts over nodes (64 log
    /// buckets).
    pub fn dispatch_buckets(&self) -> Vec<u64> {
        let mut total = vec![0u64; BUCKETS];
        for &d in &self.dispatches {
            total[count_bucket(d)] += 1;
        }
        total
    }

    /// Total dispatches across all nodes.
    pub fn total_dispatches(&self) -> u64 {
        self.dispatches.iter().sum()
    }

    /// Renders the aggregates as one deterministic JSON object (schema
    /// `abe/hist-v1`). Bucket arrays are trimmed of trailing zeros so
    /// small runs stay small.
    pub fn to_json(&self) -> String {
        fn trimmed(buckets: &[u64]) -> String {
            let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            let parts: Vec<String> = buckets[..last].iter().map(u64::to_string).collect();
            format!("[{}]", parts.join(","))
        }
        format!(
            "{{\"schema\":\"abe/hist-v1\",\"records\":{},\"edges\":{},\"nodes\":{},\
             \"delay_buckets\":{},\"delay_max_edge_mean\":{},\
             \"inflight_max\":{},\"inflight_hw_buckets\":{},\
             \"dispatch_total\":{},\"dispatch_buckets\":{}}}",
            self.observed,
            self.edge_count(),
            self.node_count(),
            trimmed(&self.delay_buckets()),
            abe_stats::json_f64(self.max_edge_mean()),
            self.max_inflight(),
            trimmed(&self.inflight_hw_buckets()),
            self.total_dispatches(),
            trimmed(&self.dispatch_buckets()),
        )
    }
}

impl Recorder for HistogramSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.observed += 1;
        match &rec.event {
            TraceEvent::Start { node } | TraceEvent::Tick { node } => self.bump_dispatch(*node),
            TraceEvent::Send { edge, delay, .. } => {
                if self.delay_hist.is_empty() {
                    self.delay_hist = vec![0; BUCKETS];
                }
                self.delay_hist[delay_bucket(*delay)] += 1;
                let slot = self.edge_delay(*edge);
                slot.sum += delay;
                slot.count += 1;
                self.bump_inflight(*edge, true);
            }
            TraceEvent::Deliver { edge, dst, .. } => {
                self.bump_inflight(*edge, false);
                self.bump_dispatch(*dst);
            }
            TraceEvent::DropCrash { edge, .. } => {
                self.bump_inflight(*edge, false);
            }
            // Partition and random drops happen at send time: the kernel
            // emits the drop record *instead of* a Send, the message never
            // entered the channel, so in-flight counts are untouched.
            TraceEvent::DropPartition { .. } | TraceEvent::DropRandom { .. } => {}
            TraceEvent::Crash { .. }
            | TraceEvent::Recover { .. }
            | TraceEvent::StateChange { .. }
            | TraceEvent::Decide { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_sim::SimTime;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(1.0),
            key: 0,
            sub: 0,
            event,
        }
    }

    fn send(edge: u32, delay: f64) -> TraceRecord {
        rec(TraceEvent::Send {
            edge,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            delay,
        })
    }

    #[test]
    fn delay_buckets_follow_binary_magnitude() {
        assert_eq!(delay_bucket(0.0), 0);
        assert_eq!(delay_bucket(-1.0), 0);
        assert_eq!(delay_bucket(f64::NAN), 0);
        assert_eq!(delay_bucket(1.0), 32); // 2^0
        assert_eq!(delay_bucket(1.5), 32);
        assert_eq!(delay_bucket(2.0), 33);
        assert_eq!(delay_bucket(0.5), 31);
        assert_eq!(delay_bucket(1e-300), 1); // clamped low
        assert_eq!(delay_bucket(1e300), 63); // clamped high
    }

    #[test]
    fn count_buckets_follow_bit_length() {
        assert_eq!(count_bucket(0), 0);
        assert_eq!(count_bucket(1), 1);
        assert_eq!(count_bucket(2), 2);
        assert_eq!(count_bucket(3), 2);
        assert_eq!(count_bucket(4), 3);
        assert_eq!(count_bucket(u64::MAX), 63);
    }

    #[test]
    fn per_edge_means_are_exact() {
        let mut h = HistogramSink::new();
        h.record(&send(0, 1.0));
        h.record(&send(0, 3.0));
        h.record(&send(2, 10.0));
        assert_eq!(h.edge_mean(0), Some(2.0));
        assert_eq!(h.edge_mean(1), None);
        assert_eq!(h.edge_mean(2), Some(10.0));
        assert_eq!(h.max_edge_mean(), 10.0);
        assert_eq!(h.edge_count(), 3);
        let mut buckets = vec![0; BUCKETS];
        buckets[delay_bucket(1.0)] = 1;
        buckets[delay_bucket(3.0)] = 1;
        buckets[delay_bucket(10.0)] = 1;
        assert_eq!(h.delay_buckets(), buckets);
        assert_eq!(HistogramSink::new().delay_buckets(), vec![0; BUCKETS]);
    }

    #[test]
    fn inflight_high_water_tracks_send_deliver() {
        let mut h = HistogramSink::new();
        h.record(&send(0, 1.0));
        h.record(&send(0, 1.0));
        h.record(&rec(TraceEvent::Deliver {
            edge: 0,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            payload: None,
        }));
        h.record(&send(0, 1.0));
        assert_eq!(h.max_inflight(), 2);
        // Deliver also counted a dispatch at the destination.
        assert_eq!(h.total_dispatches(), 1);
    }

    #[test]
    fn crash_drops_release_inflight_send_time_drops_do_not_touch_it() {
        let mut h = HistogramSink::new();
        h.record(&send(1, 1.0));
        h.record(&rec(TraceEvent::DropCrash {
            edge: 1,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
        }));
        assert_eq!(h.inflight[1], 0);
        assert_eq!(h.max_inflight(), 1);
        // A send-time drop arrives with no matching Send record.
        h.record(&rec(TraceEvent::DropPartition {
            edge: 1,
            src: 0,
            dst: 1,
            seq: 1,
            size: 0,
        }));
        assert_eq!(h.inflight[1], 0);
        assert_eq!(h.max_inflight(), 1);
    }

    #[test]
    fn json_shape_is_stable_and_trimmed() {
        let mut h = HistogramSink::new();
        h.record(&send(0, 1.0));
        h.record(&rec(TraceEvent::Start { node: 0 }));
        let json = h.to_json();
        assert!(json.starts_with("{\"schema\":\"abe/hist-v1\""));
        assert!(json.contains("\"records\":2"));
        assert!(json.contains("\"delay_max_edge_mean\":1"));
        assert!(!json.contains(",0]"), "trailing zeros must be trimmed");
    }
}
