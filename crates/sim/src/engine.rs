//! The discrete-event core: simulation clock, event queue, the
//! [`Component`] trait and the energy-integrating run loop.
//!
//! # Execution model
//!
//! Time is a monotone `u64` microsecond counter ([`SimClock`]). Components
//! schedule [`Event`]s into a queue that dispatches them in `(time,
//! sequence)` order, where the sequence number counts scheduling calls, so
//! a run is a deterministic function of the initial component state —
//! independent of host thread count.
//!
//! The queue has two parts. A binary heap holds events due in the future.
//! A FIFO *same-instant lane* holds every event scheduled for the current
//! time (zero delay, such as the acquire→compute hand-offs), which then
//! costs a deque push and pop instead of two heap sifts. The pop rule is:
//! the heap top if it is due now, else the lane front, else the heap top
//! (advancing the clock). This is exactly `(time, sequence)` order,
//! because every event scheduled while the clock reads `t` for time `t`
//! goes to the lane: a heap entry due at `t` was scheduled before the
//! clock reached `t`, so its sequence number is lower than every lane
//! entry's, and the lane itself is in scheduling order.
//!
//! The engine drives one *root* component. It hands every event to the
//! root's [`Component::handle`], and the root routes it to the parts that
//! react, with a static `match` over the closed event set (the bracelet's
//! router is in `device.rs`). There is no per-event broadcast and no
//! dynamic dispatch.
//!
//! Between two consecutive events every power contribution is constant:
//! the harvest intake set by the environment component and the load
//! registered in named [`LoadSlot`]s. The engine therefore integrates the
//! battery *exactly* (power × elapsed time) when it advances the clock —
//! there is no fixed integration step and no step-size error. Events only
//! exist where power actually changes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use iw_fault::{FaultCounters, ReliabilityCounters};
use iw_harvest::{Battery, TracePoint};
use iw_metrics::Histogram;
use iw_trace::{TraceSink, TrackId};

/// Microseconds per second, the engine's tick rate.
pub const US_PER_S: f64 = 1e6;

/// Converts seconds to engine ticks (microseconds), rounding to nearest.
///
/// # Panics
///
/// Panics when `seconds` is negative or not finite.
#[must_use]
pub fn secs_to_us(seconds: f64) -> u64 {
    assert!(
        seconds.is_finite() && seconds >= 0.0,
        "duration must be a non-negative finite number of seconds"
    );
    (seconds * US_PER_S).round() as u64
}

/// The simulation clock: current time in microseconds since t = 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now_us: u64,
}

impl SimClock {
    /// Current time, microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Current time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / US_PER_S
    }

    fn advance_to(&mut self, t_us: u64) -> f64 {
        debug_assert!(t_us >= self.now_us, "time must not run backwards");
        let dt_s = (t_us - self.now_us) as f64 / US_PER_S;
        self.now_us = t_us;
        dt_s
    }
}

/// The closed event vocabulary of the whole-device simulation.
///
/// Components communicate exclusively through these events and the shared
/// [`DeviceState`]. The root component routes each event to the
/// components that react to it with an exhaustive `match`, so the wiring
/// between environment, policy, sensors, compute and radio is visible in
/// one place, and a new variant does not compile until it is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// The environment entered segment `index` of its profile.
    EnvSegment {
        /// Index into the profile's segment list.
        index: usize,
    },
    /// The detection policy re-evaluates and may trigger an acquisition.
    PolicyTick,
    /// A 3 s ECG + GSR acquisition window opens.
    AcquireStart,
    /// An acquisition window closes (its samples are ready).
    AcquireEnd,
    /// Feature extraction + classification starts on the compute target.
    ComputeStart,
    /// The compute job retires: one detection is complete. `job` is the
    /// dispatching component's job-slot index (0 for the single-target
    /// device; the target-class index when an adaptive policy picks the
    /// compute target per classification), so concurrent jobs of
    /// different durations resolve to the right slot.
    ComputeEnd {
        /// Job-slot index within the compute component.
        job: usize,
    },
    /// A periodic BLE sync burst keys the radio on.
    BleSyncStart,
    /// The BLE sync burst ends.
    BleSyncEnd,
    /// A scheduled fault window opens (index into the fault plan).
    FaultStart {
        /// Index into the plan's window list.
        index: usize,
    },
    /// A scheduled fault window closes.
    FaultEnd {
        /// Index into the plan's window list.
        index: usize,
    },
    /// A scheduled contact window opens: the BLE scanner keys on
    /// (index into the device's contact plan).
    ContactStart {
        /// Index into the plan's entry list.
        index: usize,
    },
    /// The scan window for a contact closes: the peer is observed (or
    /// missed, if the device went down mid-scan).
    ContactEnd {
        /// Index into the plan's entry list.
        index: usize,
    },
    /// Fuel-gauge noise resamples the observed state of charge.
    GaugeTick,
    /// Cold-start delay elapsed: the device attempts to resume from
    /// brownout.
    BrownoutRecover,
    /// Trace sampling tick: record a [`TracePoint`].
    Sample,
    /// End of simulation: integrate up to here, then stop.
    End,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    t_us: u64,
    seq: u64,
    ev: Event,
}

/// The event queue: future events in a binary heap, events due at the
/// current time in a FIFO lane (see the module docs for the pop rule).
/// `push` and `pop` are `#[inline(always)]`: they run once per event,
/// and without it their inlining into `Engine::run` hinges on how the
/// compiler splits the crate into codegen units, which unrelated edits
/// elsewhere in the crate shift.
#[derive(Debug, Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    lane: VecDeque<Event>,
}

impl Queue {
    /// Queues `ev` for `t_us`, with the clock at `now_us`.
    #[inline(always)]
    fn push(&mut self, now_us: u64, t_us: u64, seq: u64, ev: Event) {
        if t_us == now_us {
            self.lane.push_back(ev);
        } else {
            self.heap.push(Reverse(Scheduled { t_us, seq, ev }));
        }
    }

    /// Removes the next event in `(time, sequence)` order, with the clock
    /// at `now_us`.
    #[inline(always)]
    fn pop(&mut self, now_us: u64) -> Option<(u64, Event)> {
        let due_now = matches!(self.heap.peek(), Some(Reverse(top)) if top.t_us == now_us);
        if !due_now {
            if let Some(ev) = self.lane.pop_front() {
                return Some((now_us, ev));
            }
        }
        self.heap.pop().map(|Reverse(s)| (s.t_us, s.ev))
    }

    fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }
}

/// Handle to one named battery-side load contribution (see
/// [`DeviceState::register_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSlot(usize);

/// The shared mutable state every component sees: the battery, the
/// harvest intake, the load registry and the run's accumulators.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// The cell being charged and discharged.
    pub battery: Battery,
    /// Battery-side solar intake, watts (set by the environment).
    pub solar_w: f64,
    /// Battery-side TEG intake, watts (set by the environment).
    pub teg_w: f64,
    /// Remaining solar intake fraction under occlusion faults (1 = no
    /// fault active).
    pub solar_derate: f64,
    /// Remaining TEG intake fraction under ΔT-collapse faults.
    pub teg_derate: f64,
    /// Always-on baseline draw (sleep floor), watts.
    pub base_load_w: f64,
    /// Fuel-gauge read error currently applied to [`Self::observed_soc`].
    pub soc_bias: f64,
    /// `false` while the brownout state machine holds the device in
    /// acquisition-off (the policy must not start new work).
    pub acquisition_enabled: bool,
    /// Active signal-corrupting fault windows (ECG lead-off, motion
    /// artifact, GSR detach). Non-zero means open acquisition windows
    /// are unusable.
    pub signal_faults: u32,
    /// When browned out: the time the current episode began, µs.
    pub down_since_us: Option<u64>,
    /// Per-fault-kind episode counters.
    pub faults: FaultCounters,
    /// Reliability accumulators (downtime, gated windows, sync outcomes).
    pub reliability: ReliabilityCounters,
    /// Detections completed so far.
    pub detections: u64,
    /// Per-detection BLE result notifications sent.
    pub notifications: u64,
    /// Periodic BLE sync bursts completed.
    pub sync_bursts: u64,
    /// Distribution of BLE transmission attempts per sync episode
    /// (1 = first try succeeded; see `RadioComponent`).
    pub sync_attempts: Histogram,
    /// Distribution of BLE retry backoff delays, µs.
    pub sync_backoff_us: Histogram,
    /// Active gateway-outage fault windows (`FaultKind::BleLoss`
    /// windows). Non-zero forces every sync attempt to fail, pushing
    /// the radio into its retry/backoff path.
    pub gateway_down: u32,
    /// Contact windows whose scan completed with the peer observed.
    pub contacts_observed: u64,
    /// Contact windows missed (device down or mid-scan brownout).
    pub contacts_missed: u64,
    /// Observed contacts queued for uplink, awaiting the next
    /// successful sync flush.
    pub pending_contacts: u64,
    /// Contact reports delivered through the sync path.
    pub contacts_uplinked: u64,
    /// Energy spent in BLE scan windows, joules (also drawn from the
    /// battery through the scanner's load slot; this is the tally).
    pub scan_energy_j: f64,
    /// Results currently batched for the next sync flush (the radio
    /// mirrors its backlog here so adaptive policies can read the queue
    /// depth without reaching into the component).
    pub queue_depth: u64,
    /// Trailing exponentially-weighted average of the harvest intake,
    /// watts — the adaptive policies' harvest forecast. Updated by the
    /// policy component on its own ticks, so it is a deterministic
    /// function of the event sequence.
    pub harvest_avg_w: f64,
    /// Classifications dispatched per compute-target class
    /// (`iw_policy::TargetClass` order: M4, Ibex, cluster). All zero
    /// unless a target-selection rule is active.
    pub target_counts: [u64; 3],
    /// Acquisitions suppressed by fault-aware backoff (signal-quality
    /// fault active at the policy tick).
    pub backoff_skips: u64,
    /// Sync intervals stretched by fault-aware backoff (gateway
    /// unreachable at reschedule time).
    pub sync_stretches: u64,
    /// Observed contact-graph edges as `(epoch, peer)` pairs, in scan
    /// completion order — the fleet layer attaches the device index and
    /// feeds them to the epidemic fold.
    pub contact_edges: Vec<(u32, u32)>,
    /// `true` once a discharge request ever exceeded the stored energy.
    pub browned_out: bool,
    /// Energy actually stored into the cell (after charge losses), joules.
    pub stored_j: f64,
    /// Energy drawn from the cell, joules.
    pub consumed_j: f64,
    /// Sampled state-of-charge trajectory.
    pub trace: Vec<TracePoint>,
    loads: Vec<(&'static str, f64)>,
}

impl DeviceState {
    /// Fresh state around `battery`; no intake, no loads.
    #[must_use]
    pub fn new(battery: Battery) -> DeviceState {
        DeviceState {
            battery,
            solar_w: 0.0,
            teg_w: 0.0,
            solar_derate: 1.0,
            teg_derate: 1.0,
            base_load_w: 0.0,
            soc_bias: 0.0,
            acquisition_enabled: true,
            signal_faults: 0,
            down_since_us: None,
            faults: FaultCounters::default(),
            reliability: ReliabilityCounters::default(),
            detections: 0,
            notifications: 0,
            sync_bursts: 0,
            sync_attempts: Histogram::new(),
            sync_backoff_us: Histogram::new(),
            gateway_down: 0,
            contacts_observed: 0,
            contacts_missed: 0,
            pending_contacts: 0,
            contacts_uplinked: 0,
            scan_energy_j: 0.0,
            queue_depth: 0,
            harvest_avg_w: 0.0,
            target_counts: [0; 3],
            backoff_skips: 0,
            sync_stretches: 0,
            contact_edges: Vec::new(),
            browned_out: false,
            stored_j: 0.0,
            consumed_j: 0.0,
            trace: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// Registers a named load slot, initially drawing nothing.
    pub fn register_load(&mut self, name: &'static str) -> LoadSlot {
        self.loads.push((name, 0.0));
        LoadSlot(self.loads.len() - 1)
    }

    /// Sets a slot's draw *absolutely* (not incrementally), watts.
    /// Components that overlap work (e.g. concurrent acquisition windows)
    /// set `count × unit_power`, so float error can never accumulate.
    ///
    /// # Panics
    ///
    /// Panics when `power_w` is negative or not finite.
    pub fn set_load(&mut self, slot: LoadSlot, power_w: f64) {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "load power must be non-negative and finite"
        );
        self.loads[slot.0].1 = power_w;
    }

    /// Total battery-side load right now, watts.
    #[must_use]
    pub fn load_w(&self) -> f64 {
        self.base_load_w + self.loads.iter().map(|(_, w)| w).sum::<f64>()
    }

    /// Total battery-side harvest intake right now, watts (occlusion /
    /// ΔT-collapse derating applied).
    #[must_use]
    pub fn intake_w(&self) -> f64 {
        self.solar_w * self.solar_derate + self.teg_w * self.teg_derate
    }

    /// The state of charge the *device* observes: the true SoC plus the
    /// current fuel-gauge read error, clamped to `[0, 1]`. Policies read
    /// this, never the true value.
    #[must_use]
    pub fn observed_soc(&self) -> f64 {
        (self.battery.soc() + self.soc_bias).clamp(0.0, 1.0)
    }

    /// Integrates the piecewise-constant powers over `dt_s` seconds:
    /// charge first (losses + capacity clipping apply), then discharge.
    /// On brown-out the available energy is drained, the flag sticks, and
    /// the simulation continues (the device rides the harvest trickle).
    fn advance(&mut self, dt_s: f64) {
        if dt_s <= 0.0 {
            return;
        }
        self.stored_j += self.battery.charge(self.intake_w() * dt_s);
        self.draw(self.load_w() * dt_s);
    }

    /// Draws `energy_j` from the cell with brown-out semantics.
    fn draw(&mut self, energy_j: f64) {
        match self.battery.discharge(energy_j) {
            Ok(()) => self.consumed_j += energy_j,
            Err(e) => {
                let _ = self.battery.discharge(e.available_j);
                self.browned_out = true;
                self.consumed_j += e.available_j;
            }
        }
    }
}

/// Track handles the engine registers once per run and hands to the
/// root component through [`SimCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracks {
    /// Device activity track (spans/instants), microsecond ticks.
    pub device: TrackId,
    /// Harvest counter track (`soc_pct`, `solar_mw`, ...), second ticks.
    pub harvest: TrackId,
}

/// What a component sees while handling an event: the clock, the shared
/// state, the sink, and the scheduling interface.
pub struct SimCtx<'a, S: TraceSink> {
    /// Current simulation time, microseconds.
    pub now_us: u64,
    /// The shared device state.
    pub state: &'a mut DeviceState,
    /// The trace sink (guard emissions with `if S::ENABLED`).
    pub sink: &'a mut S,
    /// Pre-registered track handles.
    pub tracks: Tracks,
    queue: &'a mut Queue,
    seq: &'a mut u64,
    stopped: &'a mut bool,
}

impl<S: TraceSink> SimCtx<'_, S> {
    /// Current simulation time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / US_PER_S
    }

    /// Schedules `ev` at absolute time `t_us`.
    ///
    /// # Panics
    ///
    /// Panics when `t_us` is in the past.
    pub fn schedule_at(&mut self, t_us: u64, ev: Event) {
        assert!(t_us >= self.now_us, "cannot schedule into the past");
        self.queue.push(self.now_us, t_us, *self.seq, ev);
        *self.seq += 1;
    }

    /// Schedules `ev` after `delay_us` microseconds.
    pub fn schedule_in(&mut self, delay_us: u64, ev: Event) {
        self.schedule_at(self.now_us.saturating_add(delay_us), ev);
    }

    /// Draws an energy impulse from the battery right now (used for
    /// bursts too short to matter as a power level, e.g. a 4-byte BLE
    /// result notification). Brown-out semantics match continuous loads.
    pub fn consume_j(&mut self, energy_j: f64) {
        self.state.draw(energy_j);
    }

    /// Stops the run after the current event is fully dispatched.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}

/// The root of a simulated device, driven by [`Engine::run`]. The engine
/// hands it every event; the root reacts itself or routes the event to
/// the parts it owns.
pub trait Component<S: TraceSink> {
    /// Called once before the first event: register load slots and
    /// schedule the initial events.
    fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
        let _ = ctx;
    }

    /// Handles one event.
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>);
}

/// The discrete-event engine: owns the clock, the queue and the shared
/// state, and runs a root [`Component`] until [`Event::End`] (or until it
/// calls [`SimCtx::stop`]).
pub struct Engine {
    /// The shared device state (read the results out of here after
    /// [`Engine::run`]).
    pub state: DeviceState,
    clock: SimClock,
    queue: Queue,
    seq: u64,
    events_processed: u64,
    queue_high_water: u64,
}

impl Engine {
    /// A fresh engine around `battery`.
    #[must_use]
    pub fn new(battery: Battery) -> Engine {
        Engine {
            state: DeviceState::new(battery),
            clock: SimClock::default(),
            queue: Queue::default(),
            seq: 0,
            events_processed: 0,
            queue_high_water: 0,
        }
    }

    /// Events processed so far (the fleet throughput metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event-queue depth (heap and same-instant
    /// lane together) across the run so far. Components only push during
    /// dispatch (they cannot pop), so sampling the depth after each
    /// dispatch captures the true peak.
    #[must_use]
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Current simulation time, microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Runs `root` to completion: pops events in (time, sequence) order,
    /// integrates the battery over each inter-event gap (an event due at
    /// the current time has no gap to integrate), and hands each event to
    /// `root`. Returns the number of events processed.
    pub fn run<S: TraceSink>(&mut self, root: &mut impl Component<S>, sink: &mut S) -> u64 {
        let tracks = Tracks {
            device: sink.track("device", 1.0),
            harvest: sink.track("harvest", 1e-6),
        };
        let mut stopped = false;
        {
            let mut ctx = SimCtx {
                now_us: self.clock.now_us(),
                state: &mut self.state,
                sink,
                tracks,
                queue: &mut self.queue,
                seq: &mut self.seq,
                stopped: &mut stopped,
            };
            root.start(&mut ctx);
        }
        self.queue_high_water = self.queue_high_water.max(self.queue.len() as u64);
        while let Some((t_us, ev)) = self.queue.pop(self.clock.now_us()) {
            if t_us != self.clock.now_us() {
                let dt_s = self.clock.advance_to(t_us);
                self.state.advance(dt_s);
            }
            self.events_processed += 1;
            if ev == Event::End {
                break;
            }
            let mut ctx = SimCtx {
                now_us: self.clock.now_us(),
                state: &mut self.state,
                sink,
                tracks,
                queue: &mut self.queue,
                seq: &mut self.seq,
                stopped: &mut stopped,
            };
            root.handle(ev, &mut ctx);
            self.queue_high_water = self.queue_high_water.max(self.queue.len() as u64);
            if stopped {
                break;
            }
        }
        self.events_processed
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now_us", &self.clock.now_us())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_trace::NoopSink;
    use proptest::prelude::*;

    /// Draws a constant power for a fixed time, then stops the run.
    struct ConstantLoad {
        power_w: f64,
        duration_us: u64,
        slot: Option<LoadSlot>,
    }

    impl<S: TraceSink> Component<S> for ConstantLoad {
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            let slot = ctx.state.register_load("constant");
            ctx.state.set_load(slot, self.power_w);
            self.slot = Some(slot);
            ctx.schedule_in(self.duration_us, Event::End);
        }
        fn handle(&mut self, _ev: Event, _ctx: &mut SimCtx<'_, S>) {}
    }

    #[test]
    fn integrates_power_exactly_between_events() {
        let mut battery = Battery::new(100.0);
        battery.set_soc(0.5);
        let mut engine = Engine::new(battery);
        let mut load = ConstantLoad {
            power_w: 1e-3,
            duration_us: secs_to_us(1000.0),
            slot: None,
        };
        engine.run(&mut load, &mut NoopSink);
        // 1 mW × 1000 s = 1 J, no harvest.
        assert!((engine.state.consumed_j - 1.0).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 49.0).abs() < 1e-12);
        assert!(!engine.state.browned_out);
        assert_eq!(engine.events_processed(), 1);
    }

    #[test]
    fn brown_out_drains_and_continues() {
        let mut battery = Battery::new(1.0);
        battery.set_soc(0.1);
        let mut engine = Engine::new(battery);
        let mut load = ConstantLoad {
            power_w: 1.0,
            duration_us: secs_to_us(10.0),
            slot: None,
        };
        engine.run(&mut load, &mut NoopSink);
        assert!(engine.state.browned_out);
        assert!((engine.state.consumed_j - 0.1).abs() < 1e-12);
        assert_eq!(engine.state.battery.soc(), 0.0);
    }

    #[test]
    fn ties_dispatch_in_scheduling_order() {
        /// Records the order its two same-time events arrive in.
        struct TieProbe {
            order: Vec<Event>,
        }
        impl<S: TraceSink> Component<S> for TieProbe {
            fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
                ctx.schedule_at(5, Event::PolicyTick);
                ctx.schedule_at(5, Event::Sample);
                ctx.schedule_at(6, Event::End);
            }
            fn handle(&mut self, ev: Event, _ctx: &mut SimCtx<'_, S>) {
                self.order.push(ev);
            }
        }
        let mut engine = Engine::new(Battery::new(10.0));
        let mut probe = TieProbe { order: Vec::new() };
        engine.run(&mut probe, &mut NoopSink);
        // PolicyTick was scheduled first, so at the shared timestamp it
        // dispatches first — deterministically. End stops the run
        // without being dispatched.
        assert_eq!(probe.order, [Event::PolicyTick, Event::Sample]);
        assert_eq!(engine.events_processed(), 3);
    }

    /// Tags every event it schedules with its scheduling index (the
    /// engine's sequence number) as a `FaultStart` payload and records
    /// the dispatch order. Each dispatch schedules the next entry of
    /// `children`: a list of delays, `None` scheduling `End` instead.
    struct Script {
        children: Vec<Vec<Option<u64>>>,
        next_child: usize,
        /// `(t_us, index, is_end)` of every scheduled event.
        scheduled: Vec<(u64, usize, bool)>,
        /// `(t_us, index)` of every dispatched event.
        dispatched: Vec<(u64, usize)>,
    }

    impl Script {
        fn new(children: Vec<Vec<Option<u64>>>) -> Script {
            Script {
                children,
                next_child: 0,
                scheduled: Vec::new(),
                dispatched: Vec::new(),
            }
        }

        fn schedule_next<S: TraceSink>(&mut self, ctx: &mut SimCtx<'_, S>) {
            let Some(delays) = self.children.get(self.next_child) else {
                return;
            };
            self.next_child += 1;
            for &delay in delays {
                let index = self.scheduled.len();
                let t_us = ctx.now_us + delay.unwrap_or(0);
                let ev = match delay {
                    Some(_) => Event::FaultStart { index },
                    None => Event::End,
                };
                self.scheduled.push((t_us, index, delay.is_none()));
                ctx.schedule_at(t_us, ev);
            }
        }
    }

    impl<S: TraceSink> Component<S> for Script {
        fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
            self.schedule_next(ctx);
        }
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
            let Event::FaultStart { index } = ev else {
                panic!("unexpected {ev:?}");
            };
            self.dispatched.push((ctx.now_us, index));
            self.schedule_next(ctx);
        }
    }

    /// Runs `children` as a [`Script`]; returns it and the engine.
    fn run_script(children: Vec<Vec<Option<u64>>>) -> (Script, Engine) {
        let mut engine = Engine::new(Battery::new(10.0));
        let mut script = Script::new(children);
        engine.run(&mut script, &mut NoopSink);
        (script, engine)
    }

    #[test]
    fn heap_event_due_now_precedes_a_new_zero_delay_event() {
        // Start schedules #0 and #1 for t = 5. #0's handler schedules #2
        // with zero delay while #1, the older event, still sits in the
        // heap: #1 is earlier in (time, sequence) order and goes first.
        let (script, _) = run_script(vec![vec![Some(5), Some(5)], vec![Some(0)]]);
        assert_eq!(script.dispatched, [(5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    fn zero_delay_events_dispatch_fifo() {
        // #0 fans out three zero-delay events; each of those schedules
        // one more. All land in the lane and leave it in scheduling order.
        let (script, _) = run_script(vec![
            vec![Some(3)],
            vec![Some(0), Some(0), Some(0)],
            vec![Some(0)],
            vec![Some(0)],
            vec![Some(0)],
        ]);
        let order: Vec<usize> = script.dispatched.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6]);
        assert!(script.dispatched.iter().all(|&(t, _)| t == 3));
    }

    #[test]
    fn queue_high_water_counts_lane_entries() {
        // One heap event, whose handler queues four zero-delay events at
        // once: the peak depth is four, all of them in the lane.
        let (_, engine) = run_script(vec![vec![Some(1)], vec![Some(0); 4]]);
        assert_eq!(engine.queue_high_water(), 4);
        assert_eq!(engine.events_processed(), 5);
    }

    /// Replays `children` on a plain `BinaryHeap<Reverse<(t, seq)>>`
    /// queue: returns the dispatched `(t_us, index)` sequence and the
    /// high-water mark, sampled where the engine samples it.
    fn reference_model(children: &[Vec<Option<u64>>]) -> (Vec<(u64, usize)>, u64) {
        // Entries are `(t_us, index, is_end)`; the index is unique, so
        // `is_end` never takes part in the ordering.
        let mut heap = BinaryHeap::new();
        let mut seq = 0;
        let mut schedule =
            |now: u64, delays: Option<&Vec<Option<u64>>>, heap: &mut BinaryHeap<_>| {
                for &delay in delays.into_iter().flatten() {
                    heap.push(Reverse((now + delay.unwrap_or(0), seq, delay.is_none())));
                    seq += 1;
                }
            };
        let mut children = children.iter();
        schedule(0, children.next(), &mut heap);
        let mut high_water = heap.len() as u64;
        let mut dispatched = Vec::new();
        while let Some(Reverse((t, index, is_end))) = heap.pop() {
            if is_end {
                break;
            }
            dispatched.push((t, index));
            schedule(t, children.next(), &mut heap);
            high_water = high_water.max(heap.len() as u64);
        }
        (dispatched, high_water)
    }

    fn delay() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![
            Just(Some(0)),
            Just(Some(0)),
            Just(Some(0)),
            Just(Some(1)),
            Just(Some(1)),
            Just(Some(5)),
            Just(Some(5)),
            (0u64..20).prop_map(Some),
            Just(None),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lane_and_heap_dispatch_in_time_sequence_order(
            children in prop::collection::vec(prop::collection::vec(delay(), 0..4), 1..40),
        ) {
            let (script, engine) = run_script(children.clone());
            for pair in script.dispatched.windows(2) {
                prop_assert!(pair[0] < pair[1], "out of order: {:?}", pair);
            }
            // Everything ordered before the first `End` is dispatched,
            // and nothing after it.
            let end = script
                .scheduled
                .iter()
                .filter(|s| s.2)
                .map(|&(t, i, _)| (t, i))
                .min()
                .unwrap_or((u64::MAX, usize::MAX));
            let mut expected: Vec<(u64, usize)> = script
                .scheduled
                .iter()
                .filter(|&&(t, i, is_end)| !is_end && (t, i) < end)
                .map(|&(t, i, _)| (t, i))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(&script.dispatched, &expected);
            let (model_order, model_high_water) = reference_model(&children);
            prop_assert_eq!(&script.dispatched, &model_order);
            prop_assert_eq!(engine.queue_high_water(), model_high_water);
        }
    }

    #[test]
    fn impulse_consumption_matches_continuous() {
        /// Consumes 0.5 J as a single impulse at t = 1 s.
        struct Impulse;
        impl<S: TraceSink> Component<S> for Impulse {
            fn start(&mut self, ctx: &mut SimCtx<'_, S>) {
                ctx.schedule_at(secs_to_us(1.0), Event::PolicyTick);
                ctx.schedule_at(secs_to_us(2.0), Event::End);
            }
            fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_, S>) {
                if ev == Event::PolicyTick {
                    ctx.consume_j(0.5);
                }
            }
        }
        let mut battery = Battery::new(10.0);
        battery.set_soc(0.5);
        let mut engine = Engine::new(battery);
        engine.run(&mut Impulse, &mut NoopSink);
        assert!((engine.state.consumed_j - 0.5).abs() < 1e-12);
        assert!((engine.state.battery.charge_j() - 4.5).abs() < 1e-12);
    }
}
