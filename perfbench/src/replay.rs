//! Replays of a workload's own operations through one layer at a time:
//! its queue op mix through `EventQueue`, its delay model through
//! `DelayModel::sample`. Each replay times that layer alone; the tapes
//! are built before the clock starts.

use std::hint::black_box;
use std::time::Instant;

use abe_core::delay::DelayModel;
use abe_sim::{EventQueue, EventToken, SimTime, SplitMix64, Xoshiro256PlusPlus};

/// A workload's queue activity, as its `QueueStats` reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMix {
    /// Events pending at the start (the ring's per-node start events).
    pub pending: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Events cancelled.
    pub cancelled: u64,
    /// Events popped.
    pub popped: u64,
}

/// Replay length cap, so a traced run stays within its time budget.
const MAX_OPS: u64 = 4_000_000;
/// Pending-set cap for the prefill.
const MAX_PENDING: u64 = 1_000_000;
/// Cancels target one of this many most recent tokens, as a node
/// cancels the tick it scheduled moments ago.
const CANCEL_WINDOW: usize = 4_096;
/// Draws timed by [`delay_sample_ns`].
const DRAWS: u64 = 2_000_000;

enum Op {
    Schedule(f64),
    Cancel(u64),
    Pop,
}

/// Replays `mix` (scaled to at most [`MAX_OPS`] operations, in the same
/// proportions, with delays from `model`) through a fresh `EventQueue`
/// and returns nanoseconds per operation.
pub fn queue_ns_per_op(mix: &QueueMix, model: &dyn DelayModel, seed: u64) -> f64 {
    let total = mix.scheduled + mix.cancelled + mix.popped;
    if total == 0 {
        return 0.0;
    }
    let ops = total.min(MAX_OPS);
    let mut pick = SplitMix64::new(seed);
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed);
    let prefill: Vec<f64> = (0..mix.pending.min(MAX_PENDING))
        .map(|_| model.sample(&mut rng).as_secs())
        .collect();
    let tape: Vec<Op> = (0..ops)
        .map(|_| {
            let r = pick.next_u64() % total;
            if r < mix.scheduled {
                Op::Schedule(model.sample(&mut rng).as_secs())
            } else if r < mix.scheduled + mix.cancelled {
                Op::Cancel(pick.next_u64())
            } else {
                Op::Pop
            }
        })
        .collect();

    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut tokens: Vec<EventToken> = Vec::with_capacity(prefill.len() + ops as usize);
    let mut now = 0.0f64;
    for &d in &prefill {
        tokens.push(queue.schedule(SimTime::from_secs(d), 0));
    }
    let started = Instant::now();
    for op in &tape {
        match *op {
            Op::Schedule(d) => tokens.push(queue.schedule(SimTime::from_secs(now + d), 0)),
            Op::Cancel(raw) if !tokens.is_empty() => {
                let back = raw as usize % tokens.len().min(CANCEL_WINDOW);
                black_box(queue.cancel(tokens[tokens.len() - 1 - back]));
            }
            Op::Cancel(_) => {}
            Op::Pop => {
                if let Some((t, _)) = queue.pop() {
                    now = t.as_secs();
                }
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    black_box(queue.stats());
    secs * 1e9 / ops as f64
}

/// Nanoseconds per `model.sample` call over [`DRAWS`] draws.
pub fn delay_sample_ns(model: &dyn DelayModel, seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed);
    let started = Instant::now();
    let mut sum = 0.0;
    for _ in 0..DRAWS {
        sum += model.sample(black_box(&mut rng)).as_secs();
    }
    let secs = started.elapsed().as_secs_f64();
    black_box(sum);
    secs * 1e9 / DRAWS as f64
}
