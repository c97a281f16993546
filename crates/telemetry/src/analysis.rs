//! Trace analysis: timelines, causal chains, and the empirical
//! Definition-1 audit.
//!
//! Everything here is a pure function of an in-memory record slice in
//! trace order — the analyses are deterministic and run identically on
//! a freshly recorded trace or one re-read from `trace-v1` JSONL.
//!
//! The headline analysis is [`TraceAnalysis::delay_audit`]: Definition 1
//! of the source paper bounds each channel's *expected* message delay by
//! a constant; the audit recomputes every edge's empirical mean granted
//! delay from `Send` records so it can be cross-checked against the
//! delay model's declared budget or an adversary auditor's observed
//! `max_edge_mean`.

use std::fmt::Write as _;

use abe_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};

/// Per-edge roll-up of message traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeStats {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// `Send` records observed.
    pub sends: u64,
    /// `Deliver` records observed.
    pub delivers: u64,
    /// Drops of any kind (`drop_crash` + `drop_partition` + `drop_random`).
    pub drops: u64,
    /// Sum of granted channel delays over sends.
    pub delay_sum: f64,
}

impl EdgeStats {
    /// Empirical mean granted delay (`NaN` with zero sends).
    pub fn mean_delay(&self) -> f64 {
        self.delay_sum / self.sends as f64
    }

    /// Whether any record mentioned this edge.
    fn is_seen(&self) -> bool {
        self.sends > 0 || self.delivers > 0 || self.drops > 0
    }
}

/// Per-node roll-up of dispatch activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Start/tick/deliver dispatches handled by this node.
    pub dispatches: u64,
    /// Messages this node sent.
    pub sends: u64,
    /// Crash events.
    pub crashes: u64,
    /// Recover events.
    pub recoveries: u64,
    /// `(time, state)` transitions, in order.
    pub states: Vec<(SimTime, &'static str)>,
    /// `(time, value)` decisions, in order.
    pub decisions: Vec<(SimTime, u64)>,
}

impl NodeStats {
    /// Whether any record mentioned this node.
    fn is_seen(&self) -> bool {
        self.dispatches > 0
            || self.sends > 0
            || self.crashes > 0
            || self.recoveries > 0
            || !self.states.is_empty()
            || !self.decisions.is_empty()
    }
}

/// `(id, stats)` for the entries of `v` that `is_seen` keeps.
fn seen<T>(v: &[T], is_seen: fn(&T) -> bool) -> impl Iterator<Item = (u32, &T)> {
    v.iter()
        .enumerate()
        .filter(move |(_, x)| is_seen(x))
        .map(|(id, x)| (id as u32, x))
}

/// One hop in a causal chain: a message delivery and the message (if
/// any) that the handling dispatch emitted next along the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainHop {
    /// Edge the message travelled.
    pub edge: u32,
    /// Per-edge send sequence number.
    pub seq: u64,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// When the message entered the channel (`None` if the send record
    /// fell outside the retained window).
    pub sent_at: Option<SimTime>,
    /// When it was handled (`None` if dropped or still in flight).
    pub delivered_at: Option<SimTime>,
}

/// `(edge, seq, record index)` entries, sorted by `(edge, seq)` with
/// one entry per key: the dense form of an `(edge, seq) → index` map.
type MessageIndex = Vec<(u32, u64, usize)>;

/// Deterministic analyses over a trace-ordered record slice.
///
/// Edge and node statistics live in vectors indexed by id; an id that
/// no record mentions has all-zero statistics and is skipped by the
/// iterators and lookups.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    edges: Vec<EdgeStats>,
    nodes: Vec<NodeStats>,
    /// Send records by `(edge, seq)`.
    sends: MessageIndex,
    /// Deliver records by `(edge, seq)`.
    delivers: MessageIndex,
    records: Vec<TraceRecord>,
    span: Option<(SimTime, SimTime)>,
}

/// The slot for `id`, growing `v` to reach it.
fn slot<T: Default>(v: &mut Vec<T>, id: u32) -> &mut T {
    let idx = id as usize;
    if v.len() <= idx {
        v.resize_with(idx + 1, T::default);
    }
    &mut v[idx]
}

/// Sorts `index` by `(edge, seq)` and keeps the last record of each
/// repeated key.
fn seal(index: &mut MessageIndex) {
    index.sort_unstable_by_key(|&(edge, seq, idx)| (edge, seq, std::cmp::Reverse(idx)));
    index.dedup_by_key(|&mut (edge, seq, _)| (edge, seq));
}

/// The record index stored under `(edge, seq)`.
fn lookup(index: &MessageIndex, edge: u32, seq: u64) -> Option<usize> {
    index
        .binary_search_by_key(&(edge, seq), |&(e, s, _)| (e, s))
        .ok()
        .map(|at| index[at].2)
}

impl TraceAnalysis {
    /// Builds the analysis from records in trace order.
    pub fn from_records<I>(records: I) -> Self
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let mut a = Self::default();
        for rec in records {
            a.absorb(rec);
        }
        seal(&mut a.sends);
        seal(&mut a.delivers);
        a
    }

    fn absorb(&mut self, rec: TraceRecord) {
        let idx = self.records.len();
        self.span = Some(match self.span {
            None => (rec.time, rec.time),
            Some((lo, hi)) => (lo.min(rec.time), hi.max(rec.time)),
        });
        match &rec.event {
            TraceEvent::Start { node } | TraceEvent::Tick { node } => {
                slot(&mut self.nodes, *node).dispatches += 1;
            }
            TraceEvent::Send {
                edge,
                src,
                dst,
                seq,
                delay,
                ..
            } => {
                let e = slot(&mut self.edges, *edge);
                e.src = *src;
                e.dst = *dst;
                e.sends += 1;
                e.delay_sum += delay;
                slot(&mut self.nodes, *src).sends += 1;
                self.sends.push((*edge, *seq, idx));
            }
            TraceEvent::Deliver {
                edge,
                src,
                dst,
                seq,
                ..
            } => {
                let e = slot(&mut self.edges, *edge);
                e.src = *src;
                e.dst = *dst;
                e.delivers += 1;
                slot(&mut self.nodes, *dst).dispatches += 1;
                self.delivers.push((*edge, *seq, idx));
            }
            TraceEvent::DropCrash { edge, src, dst, .. }
            | TraceEvent::DropPartition { edge, src, dst, .. }
            | TraceEvent::DropRandom { edge, src, dst, .. } => {
                let e = slot(&mut self.edges, *edge);
                e.src = *src;
                e.dst = *dst;
                e.drops += 1;
            }
            TraceEvent::Crash { node } => {
                slot(&mut self.nodes, *node).crashes += 1;
            }
            TraceEvent::Recover { node } => {
                slot(&mut self.nodes, *node).recoveries += 1;
            }
            TraceEvent::StateChange { node, to } => {
                slot(&mut self.nodes, *node).states.push((rec.time, to));
            }
            TraceEvent::Decide { node, value } => {
                slot(&mut self.nodes, *node)
                    .decisions
                    .push((rec.time, *value));
            }
        }
        self.records.push(rec);
    }

    /// Records analysed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-edge statistics of every edge the trace mentions, in edge-id
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, &EdgeStats)> {
        seen(&self.edges, EdgeStats::is_seen)
    }

    /// Per-node statistics of every node the trace mentions, in node-id
    /// order.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, &NodeStats)> {
        seen(&self.nodes, NodeStats::is_seen)
    }

    /// Statistics of edge `id`, if the trace mentions it.
    pub fn edge(&self, id: u32) -> Option<&EdgeStats> {
        self.edges.get(id as usize).filter(|e| e.is_seen())
    }

    /// Statistics of node `id`, if the trace mentions it.
    pub fn node(&self, id: u32) -> Option<&NodeStats> {
        self.nodes.get(id as usize).filter(|n| n.is_seen())
    }

    /// The `(first, last)` record times, if any records exist.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        self.span
    }

    /// The largest per-edge empirical mean granted delay, with its edge
    /// id — the quantity Definition 1 bounds in expectation.
    pub fn max_edge_mean(&self) -> Option<(u32, f64)> {
        self.edges()
            .filter(|(_, e)| e.sends > 0)
            .map(|(id, e)| (id, e.mean_delay()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Per-edge Definition-1 audit rows `(edge, stats, mean)` for edges
    /// that carried at least one send, in edge-id order.
    pub fn delay_audit(&self) -> Vec<(u32, &EdgeStats, f64)> {
        self.edges()
            .filter(|(_, e)| e.sends > 0)
            .map(|(id, e)| (id, e, e.mean_delay()))
            .collect()
    }

    /// Follows the causal chain starting from message `(edge, seq)`:
    /// each hop is a delivery whose handling dispatch sent the next
    /// message in the chain (the first send of that dispatch, when it
    /// fanned out). Stops at `limit` hops, at a drop, or when the chain
    /// leaves the retained window.
    pub fn chain_from(&self, edge: u32, seq: u64, limit: usize) -> Vec<ChainHop> {
        let mut hops = Vec::new();
        let mut cursor = Some((edge, seq));
        while let Some((edge, seq)) = cursor {
            if hops.len() >= limit {
                break;
            }
            let send_idx = lookup(&self.sends, edge, seq);
            let sent_at = send_idx.map(|i| self.records[i].time);
            let deliver_idx = lookup(&self.delivers, edge, seq);
            let (src, dst) = match deliver_idx.or(send_idx).map(|i| &self.records[i].event) {
                Some(TraceEvent::Send { src, dst, .. } | TraceEvent::Deliver { src, dst, .. }) => {
                    (*src, *dst)
                }
                _ => break,
            };
            hops.push(ChainHop {
                edge,
                seq,
                src,
                dst,
                sent_at,
                delivered_at: deliver_idx.map(|i| self.records[i].time),
            });
            // The next hop is the first Send emitted by the delivering
            // dispatch: same (time, key), larger sub.
            cursor = deliver_idx.and_then(|i| {
                let head = &self.records[i];
                self.records[i + 1..]
                    .iter()
                    .take_while(|r| r.time == head.time && r.key == head.key)
                    .find_map(|r| match r.event {
                        TraceEvent::Send { edge, seq, .. } => Some((edge, seq)),
                        _ => None,
                    })
            });
        }
        hops
    }

    /// Renders a human-readable report: run span, per-node summary
    /// lines (with state/decision timelines), the Definition-1 audit
    /// table, and — when `declared_bound` is given — a verdict per edge.
    pub fn report(&self, declared_bound: Option<f64>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace analysis: {} records", self.len());
        if let Some((lo, hi)) = self.span {
            let _ = writeln!(
                out,
                "span: [{:.6}, {:.6}] virtual seconds",
                lo.as_secs(),
                hi.as_secs()
            );
        }
        let _ = writeln!(out, "\nnodes:");
        for (id, n) in self.nodes() {
            let _ = write!(
                out,
                "  n{id}: {} dispatches, {} sends",
                n.dispatches, n.sends
            );
            if n.crashes > 0 {
                let _ = write!(out, ", {} crashes / {} recoveries", n.crashes, n.recoveries);
            }
            let _ = writeln!(out);
            for (t, s) in &n.states {
                let _ = writeln!(out, "    [{:.6}] state -> {s}", t.as_secs());
            }
            for (t, v) in &n.decisions {
                let _ = writeln!(out, "    [{:.6}] decide = {v}", t.as_secs());
            }
        }
        let _ = writeln!(
            out,
            "\ndefinition-1 delay audit (per-edge mean granted delay):"
        );
        for (id, e, mean) in self.delay_audit() {
            let _ = write!(
                out,
                "  e{id} n{} -> n{}: sends={} delivers={} drops={} mean={:.6}",
                e.src, e.dst, e.sends, e.delivers, e.drops, mean
            );
            if let Some(bound) = declared_bound {
                let _ = write!(
                    out,
                    " bound={bound:.6} {}",
                    if mean <= bound { "OK" } else { "EXCEEDED" }
                );
            }
            let _ = writeln!(out);
        }
        if let Some((edge, mean)) = self.max_edge_mean() {
            let _ = writeln!(out, "max edge mean: e{edge} at {mean:.6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, key: u64, sub: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event,
        }
    }

    fn send(edge: u32, src: u32, dst: u32, seq: u64, delay: f64) -> TraceEvent {
        TraceEvent::Send {
            edge,
            src,
            dst,
            seq,
            size: 8,
            delay,
        }
    }

    fn deliver(edge: u32, src: u32, dst: u32, seq: u64) -> TraceEvent {
        TraceEvent::Deliver {
            edge,
            src,
            dst,
            seq,
            size: 8,
            payload: None,
        }
    }

    /// A 3-node relay: n0 starts and sends to n1; n1's delivery dispatch
    /// forwards to n2.
    fn relay_trace() -> Vec<TraceRecord> {
        vec![
            rec(0.0, 1, 0, TraceEvent::Start { node: 0 }),
            rec(0.0, 1, 1, send(0, 0, 1, 0, 0.5)),
            rec(0.5, 100, 0, deliver(0, 0, 1, 0)),
            rec(0.5, 100, 1, send(1, 1, 2, 0, 0.25)),
            rec(
                0.5,
                100,
                2,
                TraceEvent::StateChange {
                    node: 1,
                    to: "relay",
                },
            ),
            rec(0.75, 200, 0, deliver(1, 1, 2, 0)),
            rec(0.75, 200, 1, TraceEvent::Decide { node: 2, value: 7 }),
        ]
    }

    #[test]
    fn edge_and_node_stats_roll_up() {
        let a = TraceAnalysis::from_records(relay_trace());
        assert_eq!(a.len(), 7);
        assert_eq!(a.edge(0).unwrap().sends, 1);
        assert_eq!(a.edge(0).unwrap().delivers, 1);
        assert_eq!(a.edge(1).unwrap().mean_delay(), 0.25);
        assert_eq!(a.node(0).unwrap().sends, 1);
        assert_eq!(a.node(1).unwrap().dispatches, 1);
        assert_eq!(
            a.node(2).unwrap().decisions,
            vec![(SimTime::from_secs(0.75), 7)]
        );
        assert_eq!(a.edge(2), None);
        assert_eq!(a.node(3), None);
        assert_eq!(a.edges().map(|(id, _)| id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(a.nodes().map(|(id, _)| id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(a.max_edge_mean(), Some((0, 0.5)));
    }

    #[test]
    fn chains_follow_deliver_then_send_links() {
        let a = TraceAnalysis::from_records(relay_trace());
        let chain = a.chain_from(0, 0, 8);
        assert_eq!(chain.len(), 2);
        assert_eq!((chain[0].edge, chain[0].src, chain[0].dst), (0, 0, 1));
        assert_eq!((chain[1].edge, chain[1].src, chain[1].dst), (1, 1, 2));
        assert_eq!(chain[1].sent_at, Some(SimTime::from_secs(0.5)));
        assert_eq!(chain[1].delivered_at, Some(SimTime::from_secs(0.75)));
    }

    #[test]
    fn report_includes_audit_verdicts() {
        let a = TraceAnalysis::from_records(relay_trace());
        let ok = a.report(Some(1.0));
        assert!(ok.contains("OK"), "{ok}");
        assert!(!ok.contains("EXCEEDED"));
        let bad = a.report(Some(0.3));
        assert!(bad.contains("EXCEEDED"), "{bad}");
        assert!(bad.contains("state -> relay"));
        assert!(bad.contains("decide = 7"));
    }

    #[test]
    fn chains_follow_sends_absorbed_out_of_key_order() {
        // n0 sends on edge 3 (seq 1, then seq 0) before edge 0, so the
        // sends arrive in neither edge nor sequence order.
        let a = TraceAnalysis::from_records(vec![
            rec(0.0, 1, 0, TraceEvent::Start { node: 0 }),
            rec(0.0, 1, 1, send(3, 0, 1, 1, 0.5)),
            rec(0.0, 1, 2, send(3, 0, 1, 0, 0.5)),
            rec(0.0, 1, 3, send(0, 0, 2, 0, 0.9)),
            rec(0.5, 100, 0, deliver(3, 0, 1, 1)),
            rec(0.5, 100, 1, send(1, 1, 2, 0, 0.25)),
            rec(0.5, 101, 0, deliver(3, 0, 1, 0)),
            rec(0.75, 200, 0, deliver(1, 1, 2, 0)),
            rec(0.9, 300, 0, deliver(0, 0, 2, 0)),
        ]);
        let hops = |edge, seq| -> Vec<(u32, u64, Option<f64>, Option<f64>)> {
            a.chain_from(edge, seq, 8)
                .iter()
                .map(|h| {
                    let secs = |t: Option<SimTime>| t.map(SimTime::as_secs);
                    (h.edge, h.seq, secs(h.sent_at), secs(h.delivered_at))
                })
                .collect()
        };
        assert_eq!(
            hops(3, 1),
            [(3, 1, Some(0.0), Some(0.5)), (1, 0, Some(0.5), Some(0.75))]
        );
        assert_eq!(hops(3, 0), [(3, 0, Some(0.0), Some(0.5))]);
        assert_eq!(hops(0, 0), [(0, 0, Some(0.0), Some(0.9))]);
        assert_eq!(hops(3, 2), []);
        assert_eq!(a.edge(3).unwrap().sends, 2);
        // Edge 2 sits inside the dense store but no record mentions it.
        assert_eq!(a.edge(2), None);
        assert_eq!(a.edges().map(|(id, _)| id).collect::<Vec<_>>(), [0, 1, 3]);
    }

    #[test]
    fn repeated_message_keys_resolve_to_the_last_record() {
        let a = TraceAnalysis::from_records(vec![
            rec(0.0, 1, 0, send(2, 0, 1, 4, 0.5)),
            rec(1.0, 2, 0, send(2, 0, 1, 4, 0.5)),
            rec(1.5, 3, 0, deliver(2, 0, 1, 4)),
            rec(2.0, 4, 0, deliver(2, 0, 1, 4)),
        ]);
        let chain = a.chain_from(2, 4, 8);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].sent_at, Some(SimTime::from_secs(1.0)));
        assert_eq!(chain[0].delivered_at, Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn report_covers_a_capped_ring_trace() {
        // A ring of 5 keeps the relay from n1's delivery on: n0's start
        // and send are evicted, so edge 0 has a delivery but no send.
        let mut ring = crate::RunRecorder::new(&crate::Recording::ring(5));
        for r in relay_trace() {
            ring.absorb_merged(r);
        }
        assert_eq!(ring.dropped(), 2);
        let a = TraceAnalysis::from_records(ring.records().cloned());
        assert_eq!(
            a.report(Some(0.3)),
            "trace analysis: 5 records\n\
             span: [0.500000, 0.750000] virtual seconds\n\
             \n\
             nodes:\n\
            \x20 n1: 1 dispatches, 1 sends\n\
            \x20   [0.500000] state -> relay\n\
            \x20 n2: 1 dispatches, 0 sends\n\
            \x20   [0.750000] decide = 7\n\
             \n\
             definition-1 delay audit (per-edge mean granted delay):\n\
            \x20 e1 n1 -> n2: sends=1 delivers=1 drops=0 mean=0.250000 bound=0.300000 OK\n\
             max edge mean: e1 at 0.250000\n"
        );
        let chain = a.chain_from(0, 0, 8);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].sent_at, None, "the send was evicted");
        assert_eq!(chain[1].sent_at, Some(SimTime::from_secs(0.5)));
    }
}
