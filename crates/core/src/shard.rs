//! Deterministic parallel execution of a **single** simulation.
//!
//! [`Network::run_sharded`] splits the node space into `shards` contiguous
//! ranges (from [`NetworkBuilder::shards`](crate::NetworkBuilder::shards)),
//! gives each its own event queue, and advances all of them in
//! **conservative time windows** — the classical null-message-free variant
//! of conservative parallel discrete-event simulation:
//!
//! 1. Every outgoing cross-shard edge `e` has a *lookahead* `λ_e`, a lower
//!    bound on the latency of the next messages it will carry (see
//!    [Presampled lookahead](#presampled-lookahead)).
//! 2. A shard whose earliest pending event is at `t_next` cannot cause a
//!    cross-shard arrival before `t_next + λ_out`, where `λ_out` is the
//!    minimum lookahead over its outgoing cross-shard edges.
//! 3. The window end is `W = min over shards of (t_next + λ_out)`; every
//!    shard may process all events strictly before `W` in parallel without
//!    ever seeing a message from the current window arrive "in its past".
//!
//! Cross-shard sends are buffered in the sending shard's outbox during the
//! window and routed into the destination queue at the barrier. Their
//! ordering keys are a pure function of event identity (edge id plus the
//! per-edge send sequence), so insertion order is irrelevant and every
//! shard pops the exact event subsequence the sequential run would.
//!
//! ## Presampled lookahead
//!
//! ABE delay models bound delays only in expectation, so the paper's own
//! family, the exponential, has `min_delay() == 0`: a static bound gives
//! no window at all. The bound comes instead from the delays the run will
//! actually draw. Every channel samples from its own per-edge stream, one
//! draw per send (dropped sends included), so at each barrier the kernel
//! reads an edge's next `K` draws from a clone of its stream and sets
//!
//! `λ_e = max(min(next K draws), min_delay) · min_stretch(e) + min_proc`
//!
//! (`min_stretch` shrinks the bound by sub-unity delay-storm factors,
//! `min_proc` is the processing model's floor). The presampled minimum is
//! cached against the edge's send count, and a min-tree over the shard's
//! cross edges yields `λ_out`, so a barrier costs `O(log C)` per cross edge
//! that sent since the last barrier, not a scan of all `C`.
//!
//! The bound covers the first `K` sends of each edge in a window. A
//! `(K+1)`-th send may draw a shorter delay; the network checks every
//! cross-shard arrival against the running window's end and, on one
//! landing inside it, aborts the window into the sequential fallback
//! below. Edges whose lookahead is genuinely zero (zero-delay
//! deterministic models) leave no window: the executor then finds the
//! globally earliest `(time, key)` across shards and steps that single
//! shard once — serial, but still exact.
//!
//! ## Fidelity and fallback
//!
//! The windowed pass is **byte-identical** to the sequential run by
//! construction: every random stream is keyed by node or edge id (never by
//! shard count), per-edge state (FIFO clamp, send sequence, drop stream)
//! lives with the source shard, and the per-event ordering key reproduces
//! the sequential pop order. Four situations cannot be reproduced
//! mid-window; the first three fall back to the classic sequential loop on
//! a pristine clone of the network (so the result is *still* identical):
//!
//! * a protocol requests a stop inside a parallel window (other shards
//!   have already raced past the stop point),
//! * the event budget is exhausted strictly inside a window,
//! * a cross-shard send arrives before the end of its own window (an edge
//!   sent more than `K` messages in one window and a later draw undercut
//!   the presampled bound),
//! * a scheduling adversary is installed (it observes global node heat on
//!   every send); this delegates up front.
//!
//! Telemetry recording is **not** one of these cases: each shard records
//! into an unbounded window-local buffer, and at every barrier the buffers
//! are merged into the master recorder in `(time, key, sub)` order — the
//! exact order the sequential run would have emitted — so traces (and the
//! histograms derived from them) are byte-identical at any shard count.
//!
//! [`ShardTiming`] on the returned network records windows, degenerate
//! single-steps, per-shard busy time, and the critical path, so harnesses
//! on small hosts can report the *modelled* speedup `Σ busy /
//! critical_path` alongside the wall clock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use abe_sim::{QueueStats, RunLimits, RunOutcome, SimTime, Simulation};
use abe_telemetry::{merge_chunks, RunRecorder};

use crate::adversary::AdversaryStats;
use crate::fault::FaultRuntime;
use crate::net::{
    event_key, ChannelState, NetEvent, Network, NetworkReport, ShardTiming, KIND_CRASH,
    KIND_RECOVER, KIND_START,
};
use crate::protocol::Protocol;
use crate::topology::{edge_id_from_raw, Topology};

/// Below this many total pending events a window is executed on the
/// calling thread (spawning is pure overhead); results are identical
/// either way.
const SERIAL_WINDOW_THRESHOLD: usize = 4096;

/// Delays presampled per cross-shard edge at each barrier (the `K` of the
/// [module docs](self#presampled-lookahead)). More draws make window
/// aborts rarer and windows shorter.
const LOOKAHEAD_DRAWS: usize = 4;

/// One shard: a partition of the network driven by its own simulation.
struct Shard<P: Protocol> {
    sim: Simulation<Network<P>>,
    /// Lookahead bounds of the outgoing cross-shard edges.
    lookahead: Lookahead,
    /// Owned node range `lo..hi` (global ids).
    lo: u32,
    hi: u32,
    /// Busy nanoseconds accumulated across windows and single-steps.
    busy_nanos: u64,
}

/// One outgoing cross-shard edge of a shard.
struct CrossEdge {
    /// Index into the shard's `channels`.
    local: u32,
    /// Static lower bound on the storm stretch of any send on the edge.
    stretch: f64,
    /// The edge's send count when its bound was last presampled.
    sampled_at: u64,
}

/// Presampled lookahead over a shard's outgoing cross-shard edges: each
/// edge's bound is cached against its send count, and a min-tree over the
/// bounds yields the shard's `λ_out` (see the
/// [module docs](self#presampled-lookahead)).
struct Lookahead {
    /// Cross edges, ascending by local channel index.
    edges: Vec<CrossEdge>,
    /// Implicit min-tree: leaf `i` at `tree[edges.len() + i]`, node `j`
    /// holds `min(tree[2j], tree[2j + 1])`, the root is `tree[1]`.
    tree: Vec<f64>,
    /// The processing model's delay floor.
    proc_min: f64,
}

impl Lookahead {
    /// Presamples every edge in `edges` against the partition's channels.
    fn new(edges: Vec<CrossEdge>, channels: &[ChannelState], proc_min: f64) -> Self {
        let c = edges.len();
        let mut la = Lookahead {
            edges,
            tree: vec![f64::INFINITY; 2 * c],
            proc_min,
        };
        for i in 0..c {
            la.tree[c + i] = la.bound(i, channels);
        }
        for j in (1..c).rev() {
            la.tree[j] = la.tree[2 * j].min(la.tree[2 * j + 1]);
        }
        la
    }

    /// `λ_e` of cross edge `i`, presampled from its current stream state.
    fn bound(&self, i: usize, channels: &[ChannelState]) -> f64 {
        let edge = &self.edges[i];
        let ch = &channels[edge.local as usize];
        let draws = ch.peek_min_delay(LOOKAHEAD_DRAWS);
        draws.max(ch.delay.min_delay()) * edge.stretch + self.proc_min
    }

    /// Re-presamples the edges in `sent` (local channel indices of the
    /// cross-shard sends since the last barrier, drained) whose streams
    /// moved, and returns the shard's `λ_out` (`∞` without cross edges).
    fn refresh(&mut self, channels: &[ChannelState], sent: &mut Vec<u32>) -> f64 {
        let c = self.edges.len();
        for local in sent.drain(..) {
            let i = self
                .edges
                .binary_search_by_key(&local, |e| e.local)
                .expect("cross-shard sends use cross edges");
            let now_sent = channels[local as usize].sent;
            if self.edges[i].sampled_at == now_sent {
                continue;
            }
            self.edges[i].sampled_at = now_sent;
            let mut j = c + i;
            self.tree[j] = self.bound(i, channels);
            while j > 1 {
                j /= 2;
                self.tree[j] = self.tree[2 * j].min(self.tree[2 * j + 1]);
            }
        }
        self.min()
    }

    /// The minimum bound over all cross edges (`∞` if there are none).
    fn min(&self) -> f64 {
        self.tree.get(1).copied().unwrap_or(f64::INFINITY)
    }
}

impl<P> Network<P>
where
    P: Protocol + Clone + Send,
    P::Message: Send,
{
    /// Runs the network like [`Network::run`], but partitioned across the
    /// configured shard count (see
    /// [`NetworkBuilder::shards`](crate::NetworkBuilder::shards)) and
    /// advanced in conservative time windows executed in parallel.
    ///
    /// The returned [`NetworkReport`] — outcome, end time, event count,
    /// message counters, fault statistics, queue telemetry — is equal to
    /// the sequential run's for every shard count; see the
    /// [module docs](crate::shard) for why — including any recorded
    /// trace, which is merged back into global `(time, key, sub)` order at
    /// every window barrier. Runs that cannot be parallelised faithfully
    /// (an installed adversary; a mid-window stop, event-budget
    /// exhaustion, or a cross-shard send that undercut its window) run
    /// sequentially on the untouched network, preserving the guarantee at
    /// the cost of the speedup; [`Network::shard_timing`] reports whether
    /// a fallback happened.
    pub fn run_sharded(self, limits: RunLimits) -> (NetworkReport, Network<P>) {
        let n = self.topo.node_count();
        let shards = self.shards.min(n).max(1);
        // Delegate whole-run observers (and trivial shard counts) to the
        // sequential loop: an adversary reads global node heat per send.
        // Telemetry recording does NOT delegate — shard-local window
        // buffers are merged at each barrier (see the module docs).
        if shards <= 1 || self.adversary.is_some() {
            return self.run(limits);
        }
        // The windowed pass runs on per-shard copies and leaves `self`
        // pristine until it succeeds.
        match run_windowed(self, shards, limits) {
            Ok(done) => done,
            Err((mut timing, pristine)) => {
                // The windowed pass aborted (a stop, a budget overshoot or
                // an undercut window): discard it and replay sequentially
                // from the pristine network — identical to `run` by
                // construction.
                timing.fell_back = true;
                let (report, mut net) = pristine.run(limits);
                net.timing = Some(timing);
                (report, net)
            }
        }
    }
}

/// Shard index owning global node `node`, given the `shards + 1` range
/// bounds.
#[inline]
fn shard_of(node: u32, bounds: &[u32]) -> usize {
    bounds.partition_point(|&b| b <= node) - 1
}

/// The windowed parallel pass. `Err` means the pass aborted; it hands back
/// the untouched network so the caller can replay sequentially.
#[allow(clippy::result_large_err)] // as large as `Ok`; returned once per run
fn run_windowed<P>(
    net: Network<P>,
    shards: u32,
    limits: RunLimits,
) -> Result<(NetworkReport, Network<P>), (ShardTiming, Network<P>)>
where
    P: Protocol + Clone + Send,
    P::Message: Send,
{
    let topo = Arc::clone(&net.topo);
    let n = topo.node_count();
    let bounds: Vec<u32> = (0..=shards)
        .map(|s| (u64::from(s) * u64::from(n) / u64::from(shards)) as u32)
        .collect();
    let (mut parts, mut master) = partition(&net, &bounds);

    let mut timing = ShardTiming {
        shards,
        ..ShardTiming::default()
    };
    let mut cum: u64 = 0;

    let outcome = loop {
        // ---- barrier: pick the next window (or the run outcome) ----
        let mut min_next: Option<(SimTime, u64, usize)> = None;
        let mut w_end = f64::INFINITY;
        for (i, sh) in parts.iter_mut().enumerate() {
            let world = sh.sim.world_mut();
            let lookahead = sh.lookahead.refresh(&world.channels, &mut world.cross_sent);
            if let Some((t, k)) = sh.sim.peek_time_key() {
                if min_next.is_none_or(|(mt, mk, _)| (t, k) < (mt, mk)) {
                    min_next = Some((t, k, i));
                }
                w_end = w_end.min(t.as_secs() + lookahead);
            }
        }
        // Outcome checks mirror the sequential loop's priority order:
        // quiescence beats MaxTime beats MaxEvents (see `Simulation::run`).
        let Some((t_min, _, i_min)) = min_next else {
            break RunOutcome::Quiescent;
        };
        if let Some(max_time) = limits.max_time {
            if t_min > max_time {
                break RunOutcome::MaxTime;
            }
        }
        if let Some(max_events) = limits.max_events {
            // `cum > max_events` is impossible here: overshoot aborts
            // right after the window that caused it.
            if cum >= max_events {
                break RunOutcome::MaxEvents;
            }
        }

        if w_end > t_min.as_secs() {
            // ---- parallel window: every shard runs to the horizon ----
            timing.windows += 1;
            let pending: usize = parts.iter().map(|sh| sh.sim.pending()).sum();
            let (slowest, stopped) = run_windows(
                &mut parts,
                w_end,
                limits.max_time,
                pending >= SERIAL_WINDOW_THRESHOLD,
            );
            timing.critical_path_nanos += slowest;
            cum = parts.iter().map(|sh| sh.sim.events_processed()).sum();
            if stopped {
                // A stop inside a parallel window (a protocol's, or the
                // network's on a send that undercut the window): sibling
                // shards already processed events the sequential run
                // never would have.
                return Err((timing, net));
            }
            if let Some(max_events) = limits.max_events {
                if cum > max_events {
                    return Err((timing, net));
                }
            }
            collect_trace(&mut parts, master.as_deref_mut());
            route_outboxes(&mut parts, &topo, &bounds);
        } else {
            // ---- zero lookahead: step the globally earliest event ----
            timing.single_steps += 1;
            let sh = &mut parts[i_min];
            let started = Instant::now();
            sh.sim.step();
            let nanos = started.elapsed().as_nanos() as u64;
            sh.busy_nanos += nanos;
            timing.critical_path_nanos += nanos;
            cum += 1;
            collect_trace(&mut parts, master.as_deref_mut());
            if parts[i_min].sim.stop_requested() {
                // Exact: this was the globally next event and nothing else
                // ran after it — precisely the sequential stop state.
                break RunOutcome::Stopped;
            }
            route_outboxes(&mut parts, &topo, &bounds);
        }
    };

    timing.busy_nanos = parts.iter().map(|sh| sh.busy_nanos).collect();
    Ok(merge(net, parts, outcome, cum, timing, master))
}

/// Runs one window on every shard; with `spawn`, shards after the first
/// run on scoped worker threads while the first runs on the calling
/// thread. Returns the slowest shard's busy nanoseconds and whether any
/// shard stopped.
fn run_windows<P>(
    parts: &mut [Shard<P>],
    w_end: f64,
    max_time: Option<SimTime>,
    spawn: bool,
) -> (u64, bool)
where
    P: Protocol + Send,
    P::Message: Send,
{
    let fold = |(slowest, stopped): (u64, bool), (nanos, stop): (u64, bool)| {
        (slowest.max(nanos), stopped | stop)
    };
    if !spawn {
        return parts
            .iter_mut()
            .map(|sh| run_window(sh, w_end, max_time))
            .fold((0, false), fold);
    }
    let (first, rest) = parts.split_first_mut().expect("at least two shards");
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|sh| scope.spawn(move || run_window(sh, w_end, max_time)))
            .collect();
        let own = run_window(first, w_end, max_time);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .fold(own, fold)
    })
}

/// Runs one shard up to (exclusive) the window horizon, bounded by the time
/// limit. Returns busy nanoseconds and whether a stop was requested.
fn run_window<P: Protocol>(
    shard: &mut Shard<P>,
    w_end: f64,
    max_time: Option<SimTime>,
) -> (u64, bool) {
    let started = Instant::now();
    shard.sim.world_mut().window_end = w_end;
    let mut stopped = false;
    loop {
        match shard.sim.peek_time_key() {
            None => break,
            Some((t, _)) => {
                if t.as_secs() >= w_end {
                    break;
                }
                if max_time.is_some_and(|mt| t > mt) {
                    break;
                }
            }
        }
        shard.sim.step();
        if shard.sim.stop_requested() {
            stopped = true;
            break;
        }
    }
    shard.sim.world_mut().window_end = f64::NEG_INFINITY;
    let nanos = started.elapsed().as_nanos() as u64;
    shard.busy_nanos += nanos;
    (nanos, stopped)
}

/// Drains every shard's outbox and schedules each cross-shard delivery into
/// its destination shard's queue. Keys make insertion order irrelevant.
fn route_outboxes<P: Protocol>(parts: &mut [Shard<P>], topo: &Topology, bounds: &[u32]) {
    let mut moved = Vec::new();
    for sh in parts.iter_mut() {
        let outbox = &mut sh.sim.world_mut().outbox;
        if !outbox.is_empty() {
            moved.append(outbox);
        }
    }
    for (at, key, edge, size, msg) in moved {
        let dst = topo.edge(edge_id_from_raw(edge)).dst.index() as u32;
        let dst_shard = shard_of(dst, bounds);
        parts[dst_shard]
            .sim
            .prime_keyed(at, key, NetEvent::Deliver { edge, size, msg });
    }
}

/// Drains every shard's window-local trace buffer and merges the records
/// into the master recorder in `(time, key, sub)` order — the order the
/// sequential run would have produced them in. A no-op when recording is
/// disabled.
///
/// The merge is exact because this runs at a window barrier: every record
/// a shard will ever emit at a time inside the finished window has already
/// been emitted (cross-shard arrivals land at least one lookahead later).
fn collect_trace<P: Protocol>(parts: &mut [Shard<P>], master: Option<&mut RunRecorder>) {
    let Some(master) = master else { return };
    let chunks: Vec<_> = parts
        .iter_mut()
        .map(|sh| {
            sh.sim
                .world_mut()
                .rec
                .as_deref_mut()
                .map(RunRecorder::drain)
                .unwrap_or_default()
        })
        .collect();
    merge_chunks(chunks, |rec| master.absorb_merged(rec));
}

/// Copies a full network into per-shard partitions, each primed with its
/// own nodes' start events and crash schedule; `net` itself stays
/// untouched. Returns the shards plus the master recorder (if recording is
/// enabled); each shard gets an unbounded window-local buffer that
/// [`collect_trace`] merges back into the master at every barrier.
fn partition<P>(net: &Network<P>, bounds: &[u32]) -> (Vec<Shard<P>>, Option<Box<RunRecorder>>)
where
    P: Protocol + Clone,
{
    let shards = bounds.len() - 1;
    let topo = &net.topo;

    // Each channel lives with its *source* shard (send-side state: delay
    // sampling, FIFO clamp, send sequence, drop stream); deliveries touch
    // only the destination node, not the channel. While walking the edges,
    // collect each shard's outgoing cross edges.
    let owner: Vec<(usize, bool)> = (0..topo.edge_count())
        .map(|e| {
            let edge = topo.edge(edge_id_from_raw(e as u32));
            let src_shard = shard_of(edge.src.index() as u32, bounds);
            (
                src_shard,
                src_shard != shard_of(edge.dst.index() as u32, bounds),
            )
        })
        .collect();
    let mut owned = vec![0usize; shards];
    for &(s, _) in &owner {
        owned[s] += 1;
    }
    let mut chan_chunks: Vec<Vec<ChannelState>> =
        owned.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut rank_chunks: Vec<Vec<u32>> = owned.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut cross_chunks: Vec<Vec<CrossEdge>> = (0..shards).map(|_| Vec::new()).collect();
    for (e, (ch, &(s, cross))) in net.channels.iter().zip(&owner).enumerate() {
        if cross {
            cross_chunks[s].push(CrossEdge {
                local: chan_chunks[s].len() as u32,
                stretch: net.faults.min_stretch(e),
                sampled_at: ch.sent,
            });
        }
        chan_chunks[s].push(ch.clone());
        rank_chunks[s].push(e as u32);
    }

    let master = net.rec.clone();
    let proc_min = net.processing.min_delay();
    let crash_windows = net.faults.crash_windows();
    let mut parts = Vec::with_capacity(shards);
    let chunks = chan_chunks.into_iter().zip(rank_chunks).zip(cross_chunks);
    for (s, ((channels, ranks), cross)) in chunks.enumerate() {
        let (lo, hi) = (bounds[s], bounds[s + 1]);
        // Shard 0 inherits the pre-run accumulators (normally zero; kept
        // so totals remain lifetime totals, exactly like `run`).
        let first = s == 0;
        let mut faults = net.faults.clone();
        if !first {
            faults.stats = crate::fault::FaultStats::default();
        }
        let part = Network {
            topo: Arc::clone(topo),
            reply_ports: Arc::clone(&net.reply_ports),
            nodes: net.nodes[lo as usize..hi as usize].to_vec(),
            channels,
            processing: Arc::clone(&net.processing),
            proc_rng: net.proc_rng.clone(),
            fifo: net.fifo,
            tick_interval: net.tick_interval,
            counters: if first {
                net.counters.clone()
            } else {
                BTreeMap::new()
            },
            messages_sent: if first { net.messages_sent } else { 0 },
            messages_delivered: if first { net.messages_delivered } else { 0 },
            ticks: if first { net.ticks } else { 0 },
            payload_bytes: if first { net.payload_bytes } else { 0 },
            rec: master.as_ref().map(|m| Box::new(m.window_buffer())),
            faults,
            adversary: None,
            shards: net.shards,
            shard_lo: lo,
            edge_ranks: Some(ranks),
            outbox: Vec::with_capacity(cross.len()),
            cross_sent: Vec::with_capacity(cross.len()),
            window_end: f64::NEG_INFINITY,
            timing: None,
        };
        let lookahead = Lookahead::new(cross, &part.channels, proc_min);
        let mut sim = Simulation::new(part);
        // Presize the queue (and, above, the outboxes) here, on the
        // calling thread, for about one more pending event per node:
        // windows run on worker threads, and memory first allocated there
        // lands in per-thread allocator arenas that the caller's next
        // network build cannot reuse.
        sim.reserve((hi - lo) as usize);
        for i in lo..hi {
            sim.prime_keyed(
                SimTime::ZERO,
                event_key(KIND_START, i, 0),
                NetEvent::Start(i),
            );
        }
        // Crash windows keep their *global* enumeration index as the key
        // sequence so keys match the sequential run's exactly.
        for (w_idx, w) in crash_windows.iter().enumerate() {
            if w.node < lo || w.node >= hi {
                continue;
            }
            let seq = w_idx as u64;
            sim.prime_keyed(
                SimTime::from_secs(w.at),
                event_key(KIND_CRASH, w.node, seq),
                NetEvent::Crash(w.node),
            );
            if let Some(recover_at) = w.recover_at {
                sim.prime_keyed(
                    SimTime::from_secs(recover_at),
                    event_key(KIND_RECOVER, w.node, seq),
                    NetEvent::Recover(w.node),
                );
            }
        }
        parts.push(Shard {
            sim,
            lookahead,
            lo,
            hi,
            busy_nanos: 0,
        });
    }
    (parts, master)
}

/// Writes the partitions' final state back into the network they were
/// copied from and builds the run report, the exact mirror of what
/// `Network::run` produces.
fn merge<P: Protocol>(
    mut net: Network<P>,
    parts: Vec<Shard<P>>,
    outcome: RunOutcome,
    events_processed: u64,
    timing: ShardTiming,
    master: Option<Box<RunRecorder>>,
) -> (NetworkReport, Network<P>) {
    let end_time = parts
        .iter()
        .map(|sh| sh.sim.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut queue_stats = QueueStats::default();
    for sh in &parts {
        queue_stats.merge(sh.sim.queue_stats());
    }

    net.counters.clear();
    net.messages_sent = 0;
    net.messages_delivered = 0;
    net.ticks = 0;
    net.payload_bytes = 0;
    // Fault state: start from shard 0's runtime (it carries the baseline
    // stats), fold in sibling stats, and adopt each node's down-state from
    // its owner shard.
    let mut faults: Option<FaultRuntime> = None;
    for sh in parts {
        let (lo, hi) = (sh.lo as usize, sh.hi as usize);
        let world = sh.sim.into_world();
        for (slot, node) in net.nodes[lo..hi].iter_mut().zip(world.nodes) {
            *slot = node;
        }
        let ranks = world.edge_ranks.expect("partitions track edge ranks");
        for (rank, ch) in ranks.into_iter().zip(world.channels) {
            net.channels[rank as usize] = ch;
        }
        for (name, amount) in world.counters {
            *net.counters.entry(name).or_insert(0) += amount;
        }
        net.messages_sent += world.messages_sent;
        net.messages_delivered += world.messages_delivered;
        net.ticks += world.ticks;
        net.payload_bytes += world.payload_bytes;
        match faults.as_mut() {
            None => faults = Some(world.faults),
            Some(merged) => {
                merged.stats.merge(&world.faults.stats);
                merged.adopt_down(&world.faults, lo, hi);
            }
        }
    }
    net.faults = faults.expect("at least one shard");
    net.rec = master;
    net.timing = Some(timing);

    let report = NetworkReport {
        outcome,
        end_time,
        events_processed,
        messages_sent: net.messages_sent,
        messages_delivered: net.messages_delivered,
        in_flight: net.messages_sent - net.messages_delivered - net.faults.stats.dropped(),
        ticks: net.ticks,
        payload_bytes: net.payload_bytes,
        queue_stats,
        faults: net.faults.stats,
        adversary: AdversaryStats::default(),
        counters: std::mem::take(&mut net.counters),
        trace_records: net.rec.as_ref().map_or(0, |r| r.seen()),
        trace_dropped: net.rec.as_ref().map_or(0, |r| r.dropped()),
    };
    (report, net)
}

#[cfg(test)]
mod tests {
    use abe_sim::RunLimits;

    use crate::delay::{Deterministic, Exponential, Uniform};
    use crate::fault::{EdgeSelector, FaultPlan};
    use crate::protocol::{Ctx, InPort, OutPort, Protocol};
    use crate::{NetworkBuilder, Topology};

    /// Forwards a hop-counted token; initiators inject one each.
    #[derive(Debug, Clone)]
    struct Relay {
        initiator: bool,
        hops_left: u32,
        seen: u32,
    }

    impl Protocol for Relay {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.initiator {
                ctx.send(OutPort(0), self.hops_left);
            }
        }
        fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen += 1;
            ctx.count("hops", 1);
            if msg > 0 {
                ctx.send(OutPort(0), msg - 1);
            }
        }
    }

    fn relay_builder(n: u32, seed: u64) -> NetworkBuilder {
        NetworkBuilder::new(Topology::unidirectional_ring(n).unwrap()).seed(seed)
    }

    fn relay_factory(i: usize) -> Relay {
        Relay {
            initiator: i.is_multiple_of(3),
            hops_left: 40,
            seen: 0,
        }
    }

    /// Sequential and sharded runs must produce equal reports and equal
    /// final protocol states.
    fn assert_equivalent(make: impl Fn() -> NetworkBuilder, limits: RunLimits) {
        let (seq_report, seq_net) = make().build(relay_factory).unwrap().run(limits);
        for shards in [2, 3, 8] {
            let (par_report, par_net) = make()
                .shards(shards)
                .build(relay_factory)
                .unwrap()
                .run_sharded(limits);
            assert_eq!(seq_report, par_report, "shards = {shards}");
            for i in 0..seq_net.topology().node_count() as usize {
                assert_eq!(seq_net.node(i).seen, par_net.node(i).seen, "node {i}");
            }
            let timing = par_net.shard_timing().expect("sharded run records timing");
            assert_eq!(timing.shards, shards.min(seq_net.topology().node_count()));
        }
    }

    #[test]
    fn windowed_run_matches_sequential_with_positive_lookahead() {
        assert_equivalent(
            || relay_builder(24, 11).delay(Uniform::new(0.5, 1.5).unwrap()),
            RunLimits::unbounded(),
        );
    }

    #[test]
    fn zero_lookahead_degenerates_to_exact_single_stepping() {
        // Zero-delay edges give no window at all, presampled or not.
        let make = || relay_builder(16, 5).delay(Deterministic::zero());
        assert_equivalent(make, RunLimits::unbounded());
        let (_, net) = make()
            .shards(2)
            .build(relay_factory)
            .unwrap()
            .run_sharded(RunLimits::unbounded());
        let timing = net.shard_timing().unwrap();
        assert!(timing.single_steps > 0, "{timing:?}");
        assert!(!timing.fell_back, "{timing:?}");
    }

    /// A boundary node that sends far more than `LOOKAHEAD_DRAWS` messages
    /// on its cross-shard edge inside one window outruns the presampled
    /// bound. The window guard must fire, and the sequential fallback must
    /// still reproduce the sequential run record for record.
    #[test]
    fn burst_past_presampled_draws_trips_the_window_guard() {
        use abe_telemetry::Recording;

        #[derive(Debug, Clone)]
        struct Burst {
            burst: usize,
            seen: u32,
        }
        impl Protocol for Burst {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                for _ in 0..self.burst {
                    ctx.send(OutPort(0), ());
                }
            }
            fn on_message(&mut self, _from: InPort, _msg: (), _ctx: &mut Ctx<'_, ()>) {
                self.seen += 1;
            }
        }
        // Ring 0 → 1 → 2 → 3 → 0 on two shards {0, 1} and {2, 3}: node
        // 1's only out-edge crosses the cut, and it fires its whole burst
        // at t = 0, inside the first window.
        let make = |shards: u32| {
            NetworkBuilder::new(Topology::unidirectional_ring(4).unwrap())
                .delay(Exponential::from_mean(1.0).unwrap())
                .seed(3)
                .record(Recording::full())
                .shards(shards)
                .build(|i| Burst {
                    burst: if i == 1 {
                        16 * super::LOOKAHEAD_DRAWS
                    } else {
                        0
                    },
                    seen: 0,
                })
                .unwrap()
        };
        let (seq_report, seq_net) = make(1).run(RunLimits::unbounded());
        let (par_report, par_net) = make(2).run_sharded(RunLimits::unbounded());
        let timing = par_net.shard_timing().expect("sharded run records timing");
        assert!(timing.fell_back, "{timing:?}");
        assert_eq!(timing.windows, 1, "{timing:?}");
        assert_eq!(seq_report, par_report);
        assert_eq!(
            par_report.messages_delivered,
            16 * super::LOOKAHEAD_DRAWS as u64
        );
        let seq_recs: Vec<_> = seq_net.trace().collect();
        let par_recs: Vec<_> = par_net.trace().collect();
        assert_eq!(seq_recs, par_recs);
    }

    #[test]
    fn max_time_limit_matches_sequential() {
        assert_equivalent(
            || relay_builder(24, 3).delay(Uniform::new(0.5, 1.5).unwrap()),
            RunLimits::until(abe_sim::SimTime::from_secs(7.5)),
        );
    }

    #[test]
    fn faulty_runs_match_sequential() {
        let plan = || {
            FaultPlan::new()
                .crash_recover(2, 1.0, 4.0)
                .crash_stop(9, 3.0)
                .drop(EdgeSelector::All, 0.1)
                .delay_storm(EdgeSelector::All, 2.0, 5.0, 3.0)
        };
        assert_equivalent(
            || {
                relay_builder(24, 7)
                    .delay(Uniform::new(0.5, 1.5).unwrap())
                    .fault(plan())
            },
            RunLimits::unbounded(),
        );
    }

    #[test]
    fn deterministic_delay_ties_match_sequential() {
        assert_equivalent(
            || {
                relay_builder(20, 2)
                    .delay(Deterministic::new(1.0).unwrap())
                    .fifo(true)
            },
            RunLimits::unbounded(),
        );
    }

    #[test]
    fn event_budget_overshoot_falls_back_to_sequential() {
        let limits = RunLimits::events(97);
        let (seq_report, _) = relay_builder(24, 11)
            .delay(Uniform::new(0.5, 1.5).unwrap())
            .build(relay_factory)
            .unwrap()
            .run(limits);
        let (par_report, par_net) = relay_builder(24, 11)
            .delay(Uniform::new(0.5, 1.5).unwrap())
            .shards(4)
            .build(relay_factory)
            .unwrap()
            .run_sharded(limits);
        assert_eq!(seq_report, par_report);
        assert_eq!(par_report.outcome, abe_sim::RunOutcome::MaxEvents);
        assert_eq!(par_report.events_processed, 97);
        // Whether this hit a window boundary exactly or fell back, the
        // timing must say which.
        assert!(par_net.shard_timing().is_some());
    }

    /// A protocol that stops the network mid-flight: the sharded run must
    /// still match (via exact single-step stop or sequential fallback).
    #[test]
    fn stop_requests_match_sequential() {
        #[derive(Debug, Clone)]
        struct StopAfter {
            initiator: bool,
            seen: u32,
        }
        impl Protocol for StopAfter {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.initiator {
                    ctx.send(OutPort(0), ());
                }
            }
            fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
                self.seen += 1;
                if self.seen == 5 {
                    ctx.stop_network();
                } else {
                    ctx.send(OutPort(0), ());
                }
            }
        }
        let make = |shards: u32| {
            NetworkBuilder::new(Topology::unidirectional_ring(12).unwrap())
                .delay(Uniform::new(0.5, 1.5).unwrap())
                .seed(13)
                .shards(shards)
                .build(|i| StopAfter {
                    initiator: i == 0,
                    seen: 0,
                })
                .unwrap()
        };
        let (seq_report, _) = make(1).run(RunLimits::unbounded());
        let (par_report, _) = make(4).run_sharded(RunLimits::unbounded());
        assert_eq!(seq_report, par_report);
        assert!(par_report.outcome.is_stopped());
    }

    /// Traced sharded runs no longer delegate: per-shard window buffers
    /// merged at barriers must reproduce the sequential record stream
    /// exactly — same records, same `(time, key, sub)` stamps, same
    /// derived histograms.
    #[test]
    fn traced_runs_match_sequential_record_for_record() {
        use abe_telemetry::Recording;
        let make = || {
            relay_builder(24, 11)
                .delay(Uniform::new(0.5, 1.5).unwrap())
                .record(Recording::full().histograms(true))
        };
        let (seq_report, seq_net) = make()
            .build(relay_factory)
            .unwrap()
            .run(RunLimits::unbounded());
        assert!(seq_report.trace_records > 0);
        for shards in [2, 3, 8] {
            let (par_report, par_net) = make()
                .shards(shards)
                .build(relay_factory)
                .unwrap()
                .run_sharded(RunLimits::unbounded());
            assert_eq!(seq_report, par_report, "shards = {shards}");
            assert_eq!(par_report.trace_records, seq_report.trace_records);
            let seq_recs: Vec<_> = seq_net.trace().collect();
            let par_recs: Vec<_> = par_net.trace().collect();
            assert_eq!(seq_recs, par_recs, "shards = {shards}");
            assert_eq!(
                seq_net.telemetry().unwrap().histograms().unwrap().to_json(),
                par_net.telemetry().unwrap().histograms().unwrap().to_json(),
                "shards = {shards}"
            );
            // Recording must not force the sequential fallback.
            let timing = par_net.shard_timing().expect("traced run still shards");
            assert!(!timing.fell_back, "shards = {shards}");
        }
    }

    /// Same equivalence for a delay model without a static floor (its
    /// windows come from presampled draws), with faults injecting
    /// crash/drop records.
    #[test]
    fn traced_faulty_zero_lookahead_runs_match_sequential() {
        use abe_telemetry::Recording;
        let make = || {
            relay_builder(16, 5)
                .delay(Exponential::from_mean(1.0).unwrap())
                .fault(
                    FaultPlan::new()
                        .crash_recover(2, 1.0, 4.0)
                        .drop(EdgeSelector::All, 0.1),
                )
                .record(Recording::full())
        };
        let (seq_report, seq_net) = make()
            .build(relay_factory)
            .unwrap()
            .run(RunLimits::unbounded());
        let (par_report, par_net) = make()
            .shards(4)
            .build(relay_factory)
            .unwrap()
            .run_sharded(RunLimits::unbounded());
        assert_eq!(seq_report, par_report);
        let seq_recs: Vec<_> = seq_net.trace().collect();
        let par_recs: Vec<_> = par_net.trace().collect();
        assert_eq!(seq_recs, par_recs);
    }

    #[test]
    fn adversary_runs_delegate_to_sequential() {
        use crate::adversary::{Adversary, AdversaryPlan, SendView};
        use abe_sim::Xoshiro256PlusPlus;

        /// Always proposes the full per-edge budget.
        #[derive(Debug, Clone)]
        struct Greedy;
        impl Adversary for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn delay(&mut self, send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
                send.budget
            }
            fn box_clone(&self) -> Box<dyn Adversary> {
                Box::new(self.clone())
            }
        }

        let make = |shards: u32| {
            relay_builder(12, 1)
                .delay(Exponential::from_mean(1.0).unwrap())
                .adversary(AdversaryPlan::new(1.0, Greedy).unwrap())
                .shards(shards)
                .build(relay_factory)
                .unwrap()
        };
        let (seq_report, _) = make(1).run(RunLimits::unbounded());
        let (par_report, par_net) = make(4).run_sharded(RunLimits::unbounded());
        assert_eq!(seq_report, par_report);
        // Delegated runs carry no shard timing.
        assert!(par_net.shard_timing().is_none());
    }
}
