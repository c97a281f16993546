//! The simulation engine: a [`World`] consumes events popped from the
//! [`EventQueue`](crate::EventQueue) in timestamp order and may schedule new
//! ones through the [`StepCtx`] it is handed.

use std::fmt;

use crate::queue::{EventQueue, EventToken, QueueStats};
use crate::time::{SimDuration, SimTime};

/// A simulated system: state plus an event handler.
///
/// Implementors receive each event with a [`StepCtx`] granting access to the
/// current virtual time and to scheduling operations.
///
/// # Examples
///
/// ```
/// use abe_sim::{RunLimits, SimDuration, Simulation, StepCtx, World};
///
/// /// Counts down by rescheduling itself.
/// struct Countdown(u32);
///
/// impl World for Countdown {
///     type Event = ();
///     fn handle(&mut self, ctx: &mut StepCtx<'_, ()>, _event: ()) {
///         self.0 -= 1;
///         if self.0 > 0 {
///             ctx.schedule_in(SimDuration::from_secs(1.0), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Countdown(3));
/// sim.prime(abe_sim::SimTime::ZERO, ());
/// let report = sim.run(RunLimits::unbounded());
/// assert!(report.outcome.is_quiescent());
/// assert_eq!(sim.world().0, 0);
/// assert_eq!(sim.now().as_secs(), 2.0);
/// ```
pub trait World {
    /// The event type driving this world.
    type Event;

    /// Handles one event at the context's current time.
    fn handle(&mut self, ctx: &mut StepCtx<'_, Self::Event>, event: Self::Event);
}

/// Scheduling context handed to [`World::handle`] for the duration of one
/// event dispatch.
pub struct StepCtx<'a, E> {
    now: SimTime,
    key: u64,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> StepCtx<'a, E> {
    /// The current virtual time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ordering key the event being handled was scheduled under (0
    /// for unkeyed events). Worlds that encode identity into keys via
    /// [`Self::schedule_at_keyed`] can decode it here — the trace layer
    /// uses this to stamp records independently of scheduling order.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (before [`Self::now`]); a discrete
    /// event simulation must never rewind.
    #[track_caller]
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {now}",
            now = self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedules an event at an absolute time with an explicit ordering
    /// key (see [`EventQueue::schedule_keyed`]): same-time events fire in
    /// ascending key order regardless of scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (before [`Self::now`]).
    #[track_caller]
    pub fn schedule_at_keyed(&mut self, at: SimTime, key: u64, event: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {now}",
            now = self.now
        );
        self.queue.schedule_keyed(at, key, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.queue.cancel(token)
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Requests that the run loop stop after this event completes.
    ///
    /// Pending events stay in the queue; the caller decides whether to
    /// resume, inspect, or discard them.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

impl<E> fmt::Debug for StepCtx<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepCtx")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

/// Bounds on a [`Simulation::run`] call.
///
/// Both limits are optional; [`RunLimits::unbounded`] runs until quiescence
/// or an explicit stop request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunLimits {
    /// Stop after processing this many events.
    pub max_events: Option<u64>,
    /// Do not process events scheduled after this time.
    pub max_time: Option<SimTime>,
}

impl RunLimits {
    /// No limits: run to quiescence or until the world requests a stop.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Limits only the number of processed events.
    pub fn events(max_events: u64) -> Self {
        Self {
            max_events: Some(max_events),
            max_time: None,
        }
    }

    /// Limits only the maximum virtual time.
    pub fn until(max_time: SimTime) -> Self {
        Self {
            max_events: None,
            max_time: Some(max_time),
        }
    }

    /// Sets the event limit, keeping other limits.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets the time limit, keeping other limits.
    pub fn with_max_time(mut self, max_time: SimTime) -> Self {
        self.max_time = Some(max_time);
        self
    }
}

/// Why a [`Simulation::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The world called [`StepCtx::request_stop`].
    Stopped,
    /// The event limit in [`RunLimits`] was reached.
    MaxEvents,
    /// The next event lies beyond the time limit in [`RunLimits`].
    MaxTime,
}

impl RunOutcome {
    /// Whether the run ended because the queue drained.
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent)
    }

    /// Whether the run ended by explicit request of the world.
    pub fn is_stopped(self) -> bool {
        matches!(self, RunOutcome::Stopped)
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunOutcome::Quiescent => "quiescent",
            RunOutcome::Stopped => "stopped",
            RunOutcome::MaxEvents => "max-events",
            RunOutcome::MaxTime => "max-time",
        };
        f.write_str(s)
    }
}

/// Summary of one [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Why the run returned.
    pub outcome: RunOutcome,
    /// Events processed during this call.
    pub events_processed: u64,
    /// Virtual time when the run returned.
    pub end_time: SimTime,
    /// Queue counters accumulated over the simulation's lifetime.
    pub queue_stats: QueueStats,
}

/// Drives a [`World`] through its event queue in timestamp order.
///
/// See the [`World`] documentation for a complete example.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    stop_requested: bool,
    events_processed: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Self {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stop_requested: false,
            events_processed: 0,
        }
    }

    /// Reserves queue room for at least `additional` more pending events
    /// (see [`EventQueue::reserve`]).
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Schedules an initial event before the run starts.
    pub fn prime(&mut self, at: SimTime, event: W::Event) -> EventToken {
        self.queue.schedule(at, event)
    }

    /// Schedules an initial event with an explicit ordering key (see
    /// [`EventQueue::schedule_keyed`]).
    pub fn prime_keyed(&mut self, at: SimTime, key: u64, event: W::Event) -> EventToken {
        self.queue.schedule_keyed(at, key, event)
    }

    /// `(time, key)` of the earliest pending event, or `None` when the
    /// queue is empty. Drivers that interleave several simulations (the
    /// sharded network kernel) use this to pick the globally next event.
    pub fn peek_time_key(&self) -> Option<(SimTime, u64)> {
        self.queue.peek_time_key()
    }

    /// Lifetime activity counters of the underlying queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Current virtual time (timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world state.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether a stop was requested and not yet cleared by a new run.
    pub fn stop_requested(&self) -> bool {
        self.stop_requested
    }

    /// Processes a single event, advancing virtual time.
    ///
    /// Returns the timestamp of the processed event, or `None` when the
    /// queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, key, event) = self.queue.pop_keyed()?;
        debug_assert!(time >= self.now, "event queue returned time travel");
        self.now = time;
        self.events_processed += 1;
        let mut ctx = StepCtx {
            now: time,
            key,
            queue: &mut self.queue,
            stop_requested: &mut self.stop_requested,
        };
        self.world.handle(&mut ctx, event);
        Some(time)
    }

    /// Runs until quiescence, stop request, or a limit from `limits`.
    pub fn run(&mut self, limits: RunLimits) -> RunReport {
        self.stop_requested = false;
        let mut processed_this_run = 0u64;
        let outcome = loop {
            // Quiescence wins over limits: an empty queue means the system
            // is genuinely done, even if a limit was reached simultaneously.
            match self.queue.peek_time() {
                None => break RunOutcome::Quiescent,
                Some(next) => {
                    if let Some(max_time) = limits.max_time {
                        if next > max_time {
                            break RunOutcome::MaxTime;
                        }
                    }
                }
            }
            if let Some(max) = limits.max_events {
                if processed_this_run >= max {
                    break RunOutcome::MaxEvents;
                }
            }
            self.step();
            processed_this_run += 1;
            if self.stop_requested {
                break RunOutcome::Stopped;
            }
        };
        RunReport {
            outcome,
            events_processed: processed_this_run,
            end_time: self.now,
            queue_stats: self.queue.stats(),
        }
    }
}

impl<W: World + fmt::Debug> fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that logs `(time, tag)` pairs and can fan out events.
    #[derive(Debug, Default)]
    struct Logger {
        log: Vec<(f64, u32)>,
    }

    #[derive(Debug, Clone)]
    enum Ev {
        Tag(u32),
        FanOut { children: u32, spacing: f64 },
        StopNow,
    }

    impl World for Logger {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut StepCtx<'_, Ev>, event: Ev) {
            match event {
                Ev::Tag(tag) => self.log.push((ctx.now().as_secs(), tag)),
                Ev::FanOut { children, spacing } => {
                    for i in 0..children {
                        ctx.schedule_in(
                            SimDuration::from_secs(spacing * (i + 1) as f64),
                            Ev::Tag(i),
                        );
                    }
                }
                Ev::StopNow => ctx.request_stop(),
            }
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn runs_to_quiescence() {
        let mut sim = Simulation::new(Logger::default());
        sim.prime(t(1.0), Ev::Tag(1));
        sim.prime(t(0.5), Ev::Tag(0));
        let report = sim.run(RunLimits::unbounded());
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(report.events_processed, 2);
        assert_eq!(sim.world().log, vec![(0.5, 0), (1.0, 1)]);
    }

    #[test]
    fn world_can_schedule_during_handling() {
        let mut sim = Simulation::new(Logger::default());
        sim.prime(
            t(1.0),
            Ev::FanOut {
                children: 3,
                spacing: 0.25,
            },
        );
        let report = sim.run(RunLimits::unbounded());
        assert_eq!(report.events_processed, 4);
        assert_eq!(sim.world().log, vec![(1.25, 0), (1.5, 1), (1.75, 2)]);
    }

    #[test]
    fn stop_request_halts_run_with_events_left() {
        let mut sim = Simulation::new(Logger::default());
        sim.prime(t(1.0), Ev::StopNow);
        sim.prime(t(2.0), Ev::Tag(9));
        let report = sim.run(RunLimits::unbounded());
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert_eq!(sim.pending(), 1);
        // Resuming processes the remaining event.
        let report = sim.run(RunLimits::unbounded());
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(sim.world().log, vec![(2.0, 9)]);
    }

    #[test]
    fn max_events_limit() {
        let mut sim = Simulation::new(Logger::default());
        for i in 0..10 {
            sim.prime(t(i as f64), Ev::Tag(i));
        }
        let report = sim.run(RunLimits::events(4));
        assert_eq!(report.outcome, RunOutcome::MaxEvents);
        assert_eq!(report.events_processed, 4);
        assert_eq!(sim.pending(), 6);
    }

    #[test]
    fn max_time_limit_does_not_overshoot() {
        let mut sim = Simulation::new(Logger::default());
        for i in 0..10 {
            sim.prime(t(i as f64), Ev::Tag(i));
        }
        let report = sim.run(RunLimits::until(t(4.5)));
        assert_eq!(report.outcome, RunOutcome::MaxTime);
        assert_eq!(sim.world().log.len(), 5); // t=0..4
        assert_eq!(sim.now(), t(4.0));
        // Events at exactly the limit are still processed.
        let report = sim.run(RunLimits::until(t(5.0)));
        assert_eq!(report.outcome, RunOutcome::MaxTime);
        assert_eq!(sim.world().log.len(), 6);
    }

    #[test]
    fn time_never_goes_backwards() {
        let mut sim = Simulation::new(Logger::default());
        sim.prime(t(3.0), Ev::Tag(0));
        sim.prime(t(1.0), Ev::Tag(1));
        sim.prime(t(2.0), Ev::Tag(2));
        let mut last = SimTime::ZERO;
        while let Some(now) = sim.step() {
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn step_on_empty_queue_is_none() {
        let mut sim = Simulation::new(Logger::default());
        assert!(sim.step().is_none());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulation::new(Logger::default());
        sim.prime(t(1.0), Ev::Tag(7));
        sim.run(RunLimits::unbounded());
        let world = sim.into_world();
        assert_eq!(world.log, vec![(1.0, 7)]);
    }

    /// A world that schedules at its own current time (zero delay); the
    /// engine must process such events after the current one, same time.
    #[derive(Debug, Default)]
    struct ZeroDelay {
        chain: u32,
        seen: Vec<u32>,
    }

    impl World for ZeroDelay {
        type Event = u32;
        fn handle(&mut self, ctx: &mut StepCtx<'_, u32>, event: u32) {
            self.seen.push(event);
            if event < self.chain {
                ctx.schedule_in(SimDuration::ZERO, event + 1);
            }
        }
    }

    #[test]
    fn zero_delay_chains_preserve_order_and_time() {
        let mut sim = Simulation::new(ZeroDelay {
            chain: 5,
            seen: vec![],
        });
        sim.prime(t(2.0), 0);
        let report = sim.run(RunLimits::unbounded());
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(sim.world().seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), t(2.0));
    }

    #[test]
    fn run_limits_builders_compose() {
        let limits = RunLimits::unbounded()
            .with_max_events(10)
            .with_max_time(t(5.0));
        assert_eq!(limits.max_events, Some(10));
        assert_eq!(limits.max_time, Some(t(5.0)));
    }
}
