//! Discrete-event simulation kernel.
//!
//! [`Sim<W>`] owns the virtual clock, a priority queue of scheduled closures
//! and the live network ([`FlowNet`]). Protocol layers (GridFTP engine,
//! request manager, NWS sensors) keep their state in the user-supplied world
//! `W` and schedule work as `FnOnce(&mut Sim<W>)` closures, which keeps every
//! layer non-generic over the others.
//!
//! Flow completions are kernel-native: [`Sim::start_flow`] registers an
//! `on_complete` callback which fires exactly when the network delivers the
//! last byte, with rate changes from contention, slow start and failures all
//! accounted for.
//!
//! Periodic work (a monitor polling its transfers, a meter sampler) is a
//! [`Sim::every`] tick: its body's return value is its only stop rule, and
//! [`Sim::live_ticks`] counts the ticks of a label still queued.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;

use crate::flownet::{FlowError, FlowId, FlowNet, FlowSpec};
use crate::network::Topology;
use crate::profile;
use crate::time::{SimDuration, SimTime};

type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>)>;
type FlowCb<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// The simulator: virtual clock + event queue + network + world state.
///
/// Events run earliest first, and the events of one instant in the order
/// they were scheduled. The queue is a radix heap over event times
/// (`RadixHeap`), which keeps that tie order without a sequence number and
/// without a sort.
///
/// `run_until` peeks the queue's head, then may advance to an earlier
/// network completion whose callbacks schedule below that head; so a peek
/// never raises the heap's floor, only a pop at `now` does.
pub struct Sim<W> {
    now: SimTime,
    queue: RadixHeap<EventFn<W>>,
    flow_callbacks: HashMap<FlowId, FlowCb<W>>,
    /// Spare completion list, swapped with the network's at each drain so
    /// a completion instant reuses storage instead of allocating it.
    completed: Vec<FlowId>,
    /// Live [`Sim::every`] ticks per label.
    ticks: HashMap<&'static str, usize>,
    /// The simulated wide-area network.
    pub net: FlowNet,
    /// User world: protocol state, catalogs, services.
    pub world: W,
}

impl<W> Sim<W> {
    pub fn new(topo: Topology, world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: RadixHeap::new(),
            flow_callbacks: HashMap::new(),
            completed: Vec::new(),
            ticks: HashMap::new(),
            net: FlowNet::new(topo),
            world,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedule `f` at an absolute time (clamped to now if in the past).
    pub fn schedule_at(&mut self, time: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) {
        let time = time.max(self.now);
        self.queue.push(time.as_nanos(), Box::new(f));
    }

    /// Run `body` every `period`, first at `now + period`, for as long as
    /// it returns `Continue`; `Break` retires the tick. The next tick is
    /// queued after the body returns, so it follows everything the body
    /// scheduled at the same instant — the order of a closure that
    /// re-schedules itself as its last statement.
    pub fn every(
        &mut self,
        period: SimDuration,
        label: &'static str,
        body: impl FnMut(&mut Sim<W>) -> ControlFlow<()> + 'static,
    ) where
        W: 'static,
    {
        *self.ticks.entry(label).or_insert(0) += 1;
        self.arm_tick(period, label, body);
    }

    fn arm_tick<F>(&mut self, period: SimDuration, label: &'static str, mut body: F)
    where
        F: FnMut(&mut Sim<W>) -> ControlFlow<()> + 'static,
        W: 'static,
    {
        self.schedule(period, move |s| match body(s) {
            ControlFlow::Continue(()) => s.arm_tick(period, label, body),
            ControlFlow::Break(()) => *s.ticks.get_mut(label).expect("counted by every") -= 1,
        });
    }

    /// Number of [`Sim::every`] ticks under `label` that have not returned
    /// `Break`.
    pub fn live_ticks(&self, label: &str) -> usize {
        self.ticks.get(label).copied().unwrap_or(0)
    }

    /// Start a network flow; `on_complete` fires when the last byte lands.
    pub fn start_flow(
        &mut self,
        spec: FlowSpec,
        on_complete: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> Result<FlowId, FlowError> {
        let id = self.net.start_flow(self.now, spec)?;
        self.flow_callbacks.insert(id, Box::new(on_complete));
        Ok(id)
    }

    /// Start a flow without a completion callback (background traffic,
    /// probes the owner polls manually).
    pub fn start_flow_detached(&mut self, spec: FlowSpec) -> Result<FlowId, FlowError> {
        self.net.start_flow(self.now, spec)
    }

    /// Cancel a flow; its completion callback (if any) is dropped.
    pub fn cancel_flow(&mut self, id: FlowId) {
        self.flow_callbacks.remove(&id);
        self.net.remove_flow(id);
    }

    /// Run until the event queue and network are exhausted, or until `limit`.
    ///
    /// Instrumented for the subsystem profiler ([`crate::profile`]): the
    /// loop shell is [`profile::KERNEL`] self-time, allocation work
    /// (`next_event_time` / `advance_to`) is [`profile::ALLOCATOR`], and
    /// user callbacks run under [`profile::EVENTS`] — finer scopes opened
    /// inside a callback (RM bookkeeping, per-transfer polling) subtract
    /// from the events bucket automatically. When profiling is disabled
    /// each scope is one relaxed atomic load.
    pub fn run_until(&mut self, limit: SimTime) {
        let _kernel = profile::scope(profile::KERNEL);
        loop {
            let queue_next = self.queue.peek().map_or(SimTime::MAX, SimTime);
            let net_next = {
                let _a = profile::scope(profile::ALLOCATOR);
                self.net.next_event_time()
            };
            let next = queue_next.min(net_next);
            if next > limit || next == SimTime::MAX {
                // Advance the network to the horizon so observers see
                // progress up to `limit`.
                if limit != SimTime::MAX && limit > self.now {
                    let _a = profile::scope(profile::ALLOCATOR);
                    self.net.advance_to(limit);
                    self.now = limit;
                }
                return;
            }
            self.now = next;
            {
                let _a = profile::scope(profile::ALLOCATOR);
                self.net.advance_to(next);
            }

            // `advance_to` has applied every network discontinuity due at
            // this instant (completions and slow-start crossings alike)
            // and re-solved once after all of them. Now drain everything
            // else due here as ONE batch: the completion callbacks first
            // (they logically happen "inside" the network before user
            // events), then every queued event at this time, repeating
            // until the instant is quiescent — an event callback may
            // schedule more same-instant work or cancel flows. All the
            // dirty marks accumulated by the batch (N arrivals, departures,
            // fault flips) coalesce into a single allocation recompute at
            // the `next_event_time` call on the following loop iteration.
            loop {
                let mut fired = false;
                // Out of `self` while callbacks borrow it; empty in between.
                let mut completed = std::mem::take(&mut self.completed);
                self.net.swap_completed(&mut completed);
                for fid in completed.drain(..) {
                    fired = true;
                    if let Some(cb) = self.flow_callbacks.remove(&fid) {
                        let _e = profile::scope(profile::EVENTS);
                        profile::count("kernel.flow_callbacks", 1);
                        cb(self);
                    }
                    // Completed flows are removed so they stop occupying
                    // resources in the allocator.
                    self.net.remove_flow(fid);
                }
                self.completed = completed;
                while self.queue.peek().is_some_and(|t| SimTime(t) <= self.now) {
                    let (_, f) = self.queue.pop().expect("peek saw an event due now");
                    {
                        let _e = profile::scope(profile::EVENTS);
                        profile::count("kernel.events", 1);
                        f(self);
                    }
                    fired = true;
                }
                if !fired {
                    break;
                }
            }
        }
    }

    /// Run until nothing remains to simulate.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Number of pending queued events (not counting network completions).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// A monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990):
/// the kernel's event queue, keyed on time.
///
/// No time is ever pushed below `floor`, the last popped time: the kernel
/// clamps `schedule_at` to `now`, and pops only at `now`. Entries at the
/// floor wait in one FIFO; any other entry sits in the bucket of the
/// highest bit in which its time differs from the floor, so a push is one
/// xor, one `ilog2` and a `Vec` push. A pop at an empty FIFO raises the
/// floor to the earliest time, which lies in the lowest non-empty bucket,
/// and pushes that bucket's entries again: each lands in the FIFO or in a
/// strictly lower bucket, and no other bucket's index changes.
///
/// Ties need no sort. Equal times always share a bucket, every move keeps
/// their order, and a later push appends after them; so same-instant
/// entries leave in the order they were pushed.
///
/// `peek` only finds the earliest bucketed time and caches it. It never
/// raises the floor, so a push below an already-peeked head stays legal.
struct RadixHeap<T> {
    floor: u64,
    at_floor: VecDeque<T>,
    buckets: [Vec<(u64, T)>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// The earliest bucketed time, once a peek has found it.
    head: Option<u64>,
}

impl<T> RadixHeap<T> {
    fn new() -> Self {
        RadixHeap {
            floor: 0,
            at_floor: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            head: None,
        }
    }

    fn len(&self) -> usize {
        self.at_floor.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    fn push(&mut self, time: u64, item: T) {
        debug_assert!(
            time >= self.floor,
            "push at {time} below the floor {}",
            self.floor
        );
        if time == self.floor {
            self.at_floor.push_back(item);
            return;
        }
        let b = (time ^ self.floor).ilog2() as usize;
        self.buckets[b].push((time, item));
        self.occupied |= 1 << b;
        if self.head.is_some_and(|h| time < h) {
            self.head = Some(time);
        }
    }

    /// The earliest queued time.
    fn peek(&mut self) -> Option<u64> {
        if !self.at_floor.is_empty() {
            return Some(self.floor);
        }
        if self.head.is_none() && self.occupied != 0 {
            let lowest = &self.buckets[self.occupied.trailing_zeros() as usize];
            self.head = lowest.iter().map(|e| e.0).min();
        }
        self.head
    }

    /// The earliest entry; among equal times, the first pushed.
    fn pop(&mut self) -> Option<(u64, T)> {
        if self.at_floor.is_empty() {
            self.floor = self.peek()?;
            self.head = None;
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            // Refill, then hand the emptied bucket its allocation back.
            let mut drained = std::mem::take(&mut self.buckets[b]);
            for (time, item) in drained.drain(..) {
                self.push(time, item);
            }
            self.buckets[b] = drained;
        }
        let item = self.at_floor.pop_front()?;
        Some((self.floor, item))
    }
}

/// A caller's callback `FnOnce(&mut Sim<W>, O)`, stored by a service that
/// is not generic over the world (the GridFTP engine with its transfers,
/// the request manager with its requests and campaigns). The `Sim<W>` in
/// its type is erased here, once, and recovered at the call. The downcast
/// cannot fail: a service's state is only ever reached through the
/// `Sim<W>` its callbacks were stored from.
pub struct Completion(Box<dyn Any>);

type CompletionFn<W, O> = Box<dyn FnOnce(&mut Sim<W>, O)>;

impl Completion {
    pub fn new<W: 'static, O: 'static>(f: impl FnOnce(&mut Sim<W>, O) + 'static) -> Self {
        let f: CompletionFn<W, O> = Box::new(f);
        Completion(Box::new(f))
    }

    pub fn call<W: 'static, O: 'static>(self, sim: &mut Sim<W>, outcome: O) {
        let f = self.0.downcast::<CompletionFn<W, O>>();
        f.expect("a completion fires on the Sim<W> it was stored from")(sim, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Node;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn empty_topo() -> Topology {
        Topology::new()
    }

    #[test]
    fn events_fire_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<()> = Sim::new(empty_topo(), ());
        for &d in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule(SimDuration::from_secs(d), move |s| {
                log.borrow_mut().push(s.now().as_secs_f64() as u64);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<()> = Sim::new(empty_topo(), ());
        for i in 0..5 {
            let log = log.clone();
            sim.schedule(SimDuration::from_secs(1), move |_| {
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn many_same_instant_events_drain_in_insertion_order() {
        // Pin for the event-queue replacement: N events scheduled at one
        // instant — interleaved with events at other instants, and with
        // same-instant events scheduled *by* a same-instant event — must
        // drain in insertion order. Any queue swap has to preserve the
        // (time, seq) total order this observes.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<()> = Sim::new(empty_topo(), ());
        for i in 0..256u32 {
            let log = log.clone();
            // Interleave other instants so the t=1 batch is not contiguous
            // in the underlying storage.
            let delay = if i % 3 == 0 { 2 } else { 1 };
            sim.schedule(SimDuration::from_secs(delay), move |s| {
                log.borrow_mut().push((s.now().as_secs_f64() as u64, i));
            });
        }
        // One t=1 event schedules three more events at the same instant;
        // they must run after every previously inserted t=1 event.
        {
            let log = log.clone();
            sim.schedule(SimDuration::from_secs(1), move |s| {
                log.borrow_mut().push((1, 1000));
                for j in 0..3u32 {
                    let log = log.clone();
                    s.schedule(SimDuration::ZERO, move |s2| {
                        log.borrow_mut()
                            .push((s2.now().as_secs_f64() as u64, 1001 + j));
                    });
                }
            });
        }
        sim.run();
        let got = log.borrow();
        let mut want: Vec<(u64, u32)> = Vec::new();
        for i in 0..256u32 {
            if i % 3 != 0 {
                want.push((1, i));
            }
        }
        want.extend([(1, 1000), (1, 1001), (1, 1002), (1, 1003)]);
        for i in 0..256u32 {
            if i % 3 == 0 {
                want.push((2, i));
            }
        }
        assert_eq!(*got, want);
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(RefCell::new(0));
        let mut sim: Sim<()> = Sim::new(empty_topo(), ());
        let h = hits.clone();
        sim.schedule(SimDuration::from_secs(1), move |s| {
            let h2 = h.clone();
            s.schedule(SimDuration::from_secs(1), move |s2| {
                assert_eq!(s2.now(), SimTime::from_secs(2));
                *h2.borrow_mut() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let hits = Rc::new(RefCell::new(0));
        let mut sim: Sim<()> = Sim::new(empty_topo(), ());
        let h = hits.clone();
        sim.schedule(SimDuration::from_secs(10), move |_| {
            *h.borrow_mut() += 1;
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*hits.borrow(), 0);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn flow_completion_callback_fires_at_right_time() {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let done_at = Rc::new(RefCell::new(None));
        let mut sim: Sim<()> = Sim::new(topo, ());
        let d = done_at.clone();
        sim.start_flow(
            FlowSpec::new(a, b, 50e6).window(1e12).memory_to_memory(),
            move |s| {
                *d.borrow_mut() = Some(s.now().as_secs_f64());
            },
        )
        .unwrap();
        sim.run();
        let t = done_at.borrow().unwrap();
        assert!((t - 0.5).abs() < 1e-6, "completed at {t}");
    }

    #[test]
    fn completed_flows_release_bandwidth_for_later_flows() {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let times = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<()> = Sim::new(topo, ());
        for _ in 0..2 {
            let t = times.clone();
            sim.start_flow(
                FlowSpec::new(a, b, 100e6).window(1e12).memory_to_memory(),
                move |s| t.borrow_mut().push(s.now().as_secs_f64()),
            )
            .unwrap();
        }
        sim.run();
        let ts = times.borrow();
        // Both share for 2 s: each has 100 MB, rate 50 MB/s → both finish ~2 s.
        assert!((ts[0] - 2.0).abs() < 1e-6 && (ts[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cancel_flow_suppresses_callback() {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let hits = Rc::new(RefCell::new(0));
        let mut sim: Sim<()> = Sim::new(topo, ());
        let h = hits.clone();
        let id = sim
            .start_flow(
                FlowSpec::new(a, b, 10e6).window(1e12).memory_to_memory(),
                move |_| *h.borrow_mut() += 1,
            )
            .unwrap();
        sim.schedule(SimDuration::from_millis(1), move |s| s.cancel_flow(id));
        sim.run();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn world_state_is_mutable_from_events() {
        let mut sim: Sim<Vec<u32>> = Sim::new(empty_topo(), Vec::new());
        sim.schedule(SimDuration::from_secs(1), |s| s.world.push(1));
        sim.schedule(SimDuration::from_secs(2), |s| s.world.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2]);
    }

    #[test]
    fn same_instant_flow_burst_coalesces_to_one_recompute() {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let mut sim: Sim<()> = Sim::new(topo, ());
        // 16 arrivals at exactly t=1 s, scheduled as independent events.
        for _ in 0..16 {
            sim.schedule(SimDuration::from_secs(1), move |s| {
                s.start_flow_detached(FlowSpec::new(a, b, 1e6).window(1e12).memory_to_memory())
                    .unwrap();
            });
        }
        // Step past the batch instant: the whole burst must be absorbed by
        // a single recompute pass over a single component (nothing was
        // dirty before t=1, so this is the run's only pass).
        sim.run_until(SimTime::from_secs_f64(1.01));
        let after = sim.net.alloc_stats();
        assert_eq!(after.recompute_passes, 1);
        assert_eq!(after.components_solved, 1);
        assert_eq!(sim.net.active_flow_count(), 16);
    }

    #[test]
    fn completion_and_arrival_at_same_instant_batch_cleanly() {
        // A flow finishing at t=1 and a new arrival scheduled at its exact
        // completion instant must both be processed in one batch, with the
        // completed flow's capacity released before the survivor's rate is
        // next observed.
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let done = Rc::new(RefCell::new(false));
        let mut sim: Sim<()> = Sim::new(topo, ());
        let d = done.clone();
        sim.start_flow(
            FlowSpec::new(a, b, 100e6).window(1e12).memory_to_memory(),
            move |_| *d.borrow_mut() = true,
        )
        .unwrap();
        let next = sim.net.next_event_time();
        let late = Rc::new(RefCell::new(None));
        let l = late.clone();
        sim.schedule_at(next, move |s| {
            let id = s
                .start_flow_detached(
                    FlowSpec::new(a, b, f64::INFINITY)
                        .window(1e12)
                        .memory_to_memory(),
                )
                .unwrap();
            *l.borrow_mut() = Some(s.net.flow_rate(id));
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(*done.borrow());
        // The first flow had completed and been removed, so the newcomer
        // saw the full link.
        assert!((late.borrow().unwrap() - 100e6).abs() < 1.0);
    }

    /// Every dispatched event as (time, events still queued, what ran).
    type Log = Vec<(u64, usize, &'static str)>;

    fn note(s: &mut Sim<Log>, what: &'static str) {
        let entry = (s.now().as_nanos(), s.pending_events(), what);
        s.world.push(entry);
    }

    /// Tick `a`'s `n`th run (from 1): it schedules work at its own instant
    /// and at its next tick's instant, arms tick `b` at its second run and
    /// stops after its fifth.
    fn body_a(s: &mut Sim<Log>, n: u32, arm_b: fn(&mut Sim<Log>)) -> ControlFlow<()> {
        note(s, "a");
        s.schedule(SimDuration::ZERO, |s| note(s, "a.same-instant"));
        s.schedule(SimDuration::from_secs(1), |s| note(s, "a.next-instant"));
        if n == 2 {
            arm_b(s);
        }
        if n == 5 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn body_b(s: &mut Sim<Log>, n: u32) -> ControlFlow<()> {
        note(s, "b");
        if n == 3 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Events at every tick instant of `a`, some queued before it is armed
    /// and some after; each schedules a same-instant event of its own.
    fn other(sim: &mut Sim<Log>, secs: std::ops::RangeInclusive<u64>) {
        for t in secs {
            sim.schedule_at(SimTime::from_secs(t), |s| {
                note(s, "other");
                s.schedule(SimDuration::ZERO, |s| note(s, "other.same-instant"));
            });
        }
    }

    fn tick_log(arm_a: fn(&mut Sim<Log>)) -> Log {
        let mut sim: Sim<Log> = Sim::new(empty_topo(), Vec::new());
        other(&mut sim, 1..=6);
        arm_a(&mut sim);
        other(&mut sim, 2..=3);
        sim.run();
        sim.world
    }

    #[test]
    fn every_dispatches_as_a_hand_rolled_loop_does() {
        fn hand_a(sim: &mut Sim<Log>, n: u32) {
            sim.schedule(SimDuration::from_secs(1), move |s| {
                if body_a(s, n, |s| hand_b(s, 1)).is_continue() {
                    hand_a(s, n + 1);
                }
            });
        }
        fn hand_b(sim: &mut Sim<Log>, n: u32) {
            sim.schedule(SimDuration::from_millis(500), move |s| {
                if body_b(s, n).is_continue() {
                    hand_b(s, n + 1);
                }
            });
        }
        fn every_a(sim: &mut Sim<Log>) {
            let mut n = 0;
            sim.every(SimDuration::from_secs(1), "a", move |s| {
                n += 1;
                body_a(s, n, every_b)
            });
        }
        fn every_b(sim: &mut Sim<Log>) {
            let mut n = 0;
            sim.every(SimDuration::from_millis(500), "b", move |s| {
                n += 1;
                body_b(s, n)
            });
        }
        let hand = tick_log(|s| hand_a(s, 1));
        let every = tick_log(every_a);
        assert_eq!(hand.iter().filter(|e| e.2 == "a").count(), 5);
        assert_eq!(hand.iter().filter(|e| e.2 == "b").count(), 3);
        assert_eq!(every, hand);
    }

    #[test]
    fn break_retires_the_tick() {
        let mut sim: Sim<u32> = Sim::new(empty_topo(), 0);
        for label in ["x", "x", "y"] {
            sim.every(SimDuration::from_secs(1), label, |s| {
                s.world += 1;
                if s.now() < SimTime::from_secs(3) {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
        }
        assert_eq!((sim.live_ticks("x"), sim.live_ticks("y")), (2, 1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!((sim.live_ticks("x"), sim.live_ticks("y")), (2, 1));
        sim.run();
        assert_eq!((sim.live_ticks("x"), sim.live_ticks("y")), (0, 0));
        assert_eq!(sim.live_ticks("never armed"), 0);
        assert_eq!(sim.world, 9);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn completion_callback_events_run_before_an_already_peeked_later_event() {
        // The kernel peeks the queue's head (an event at 100 s) before it
        // advances to the flow's completion at 0.5 s; what the completion
        // callback schedules there must still run first, in (time, seq)
        // order.
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, 100e6, SimDuration::ZERO);
        let mut sim: Sim<Vec<(u64, &'static str)>> = Sim::new(topo, Vec::new());
        sim.schedule_at(SimTime::from_secs(100), |s| {
            let t = s.now().as_nanos();
            s.world.push((t, "queued"));
        });
        sim.start_flow(
            FlowSpec::new(a, b, 50e6).window(1e12).memory_to_memory(),
            |s| {
                for (delay, what) in [
                    (SimDuration::from_millis(1), "cb.later"),
                    (SimDuration::ZERO, "cb.now.0"),
                    (SimDuration::ZERO, "cb.now.1"),
                ] {
                    s.schedule(delay, move |s| {
                        let t = s.now().as_nanos();
                        s.world.push((t, what));
                    });
                }
            },
        )
        .unwrap();
        sim.run();
        let done = SimTime::from_secs_f64(0.5).as_nanos();
        assert_eq!(
            sim.world,
            vec![
                (done, "cb.now.0"),
                (done, "cb.now.1"),
                (done + 1_000_000, "cb.later"),
                (SimTime::from_secs(100).as_nanos(), "queued"),
            ]
        );
    }

    #[test]
    fn widely_spread_instants_run_in_time_order_across_run_until() {
        let times = [1u64, 1 << 40, 1 << 62, u64::MAX - 1];
        let mut sim: Sim<Vec<u64>> = Sim::new(empty_topo(), Vec::new());
        for &t in [times[2], times[0], times[3], times[1]].iter() {
            sim.schedule_at(SimTime(t), |s| {
                let t = s.now().as_nanos();
                s.world.push(t);
            });
        }
        sim.run_until(SimTime(1 << 41));
        assert_eq!(sim.world, times[..2]);
        assert_eq!(sim.now(), SimTime(1 << 41));
        assert_eq!(sim.pending_events(), 2);
        sim.run_until(SimTime((1 << 62) + 1));
        assert_eq!(sim.world, times[..3]);
        sim.run();
        assert_eq!(sim.world, times);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn schedule_at_past_clamps_to_now() {
        let mut sim: Sim<Vec<f64>> = Sim::new(empty_topo(), Vec::new());
        sim.schedule(SimDuration::from_secs(5), |s| {
            s.schedule_at(SimTime::from_secs(1), |s2| {
                let now = s2.now().as_secs_f64();
                s2.world.push(now);
            });
        });
        sim.run();
        assert_eq!(sim.world, vec![5.0]);
    }

    mod radix_heap {
        use super::super::RadixHeap;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        #[test]
        fn same_instant_pops_in_seq_order() {
            let mut q = RadixHeap::new();
            // Spread the instant's entries across a refill: some are
            // bucketed before the floor reaches 42, some pushed at it.
            q.push(7, u32::MAX);
            for seq in 0..100u32 {
                q.push(42, seq);
            }
            assert_eq!(q.pop(), Some((7, u32::MAX)));
            assert_eq!(q.pop(), Some((42, 0)));
            for seq in 100..150u32 {
                q.push(42, seq);
            }
            let mut seqs = vec![0];
            while let Some((t, seq)) = q.pop() {
                assert_eq!(t, 42);
                seqs.push(seq);
            }
            assert_eq!(seqs, (0..150).collect::<Vec<_>>());
        }

        #[test]
        fn randomized_interleaving_matches_btreemap_reference() {
            let mut rng = StdRng::seed_from_u64(0xE56_2001);
            for _round in 0..200 {
                let mut q = RadixHeap::new();
                let mut reference: BTreeMap<(u64, u64), u32> = BTreeMap::new();
                let mut seq = 0u64;
                let mut floor = 0u64; // last popped time: the push floor
                let mut peeked: Option<u64> = None;
                for _op in 0..400 {
                    let roll = rng.gen_range(0..10u32);
                    if roll < 6 || reference.is_empty() {
                        let t = match peeked {
                            // Below an already-peeked head, as a completion
                            // callback schedules after the kernel peeked.
                            Some(h) if h > floor && rng.gen_bool(0.3) => rng.gen_range(floor..h),
                            _ => floor.saturating_add(match rng.gen_range(0..10u32) {
                                0 => 0,
                                1..=6 => rng.gen_range(0..1_000u64),
                                7 | 8 => rng.gen_range(0..10_000_000u64),
                                _ => rng.gen_range(0..u64::MAX / 2),
                            }),
                        };
                        q.push(t, seq as u32);
                        reference.insert((t, seq), seq as u32);
                        seq += 1;
                    } else if roll < 8 {
                        let got = q.pop();
                        let want = reference.pop_first().map(|((t, _), v)| (t, v));
                        assert_eq!(got, want);
                        floor = got.map_or(floor, |(t, _)| t);
                        peeked = None;
                    } else {
                        let want = reference.first_key_value().map(|(&(t, _), _)| t);
                        peeked = q.peek();
                        assert_eq!(peeked, want);
                    }
                    assert_eq!(q.len(), reference.len());
                }
                let want: Vec<(u64, u32)> =
                    reference.into_iter().map(|((t, _), v)| (t, v)).collect();
                let rest: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
                assert_eq!(rest, want);
            }
        }
    }
}
