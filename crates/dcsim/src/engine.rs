//! Discrete-event engine.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs with two
//! guarantees the rest of the system depends on:
//!
//! 1. **Determinism** — events scheduled for the same instant pop in the
//!    order they were pushed (FIFO tie-breaking via a monotonically
//!    increasing sequence number). `BinaryHeap` alone would pop equal-time
//!    events in an arbitrary (heap-shape-dependent) order, which would make
//!    packet interleavings depend on allocation history.
//! 2. **Monotonic time** — popping returns events in non-decreasing time
//!    order, and scheduling into the past is a logic error that panics in
//!    debug builds (and is clamped to `now` in release builds, so a
//!    mis-rounded timer cannot time-travel).
//!
//! The queue is generic over the event payload so each layer of the stack
//! can define its own event enum. Timers whose deadline keeps moving are
//! kept in the layers as *reserved-ticket slots*: the layer takes a FIFO
//! ticket with [`EventQueue::reserve_seq`] whenever the deadline changes,
//! keeps at most one event in the heap, and (re-)queues it with
//! [`EventQueue::schedule_reserved`] at `(deadline, ticket)` — the exact
//! slot a fresh `schedule` at the moment of the change would have taken.
//! A moved-later deadline pushes nothing (the queued event re-queues
//! itself when it pops early); a superseded event is ignored when it
//! pops. That is simpler and faster than tombstoning inside the heap, and
//! it never dispatches a dead timer twice.

use crate::time::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An entry in the queue: ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Ns,
    seq: u64,
}

/// A deterministic discrete-event queue.
///
/// ```
/// use ms_dcsim::{EventQueue, Ns};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Ns::from_micros(5), "b");
/// q.schedule(Ns::from_micros(1), "a");
/// q.schedule(Ns::from_micros(5), "c"); // same time as "b": FIFO order
///
/// assert_eq!(q.pop(), Some((Ns::from_micros(1), "a")));
/// assert_eq!(q.pop(), Some((Ns::from_micros(5), "b")));
/// assert_eq!(q.pop(), Some((Ns::from_micros(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Key, EventSlot<E>)>>,
    next_seq: u64,
    now: Ns,
    popped: u64,
    depth_high_water: usize,
}

/// Wrapper so the heap only compares keys, never payloads (payloads need no
/// `Ord`, and comparing them would break FIFO semantics anyway).
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Ns::ZERO,
            popped: 0,
            depth_high_water: 0,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total events popped so far; used for event budgets and stats.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending-event count — how deep the heap has ever
    /// grown. Exported as a telemetry gauge to size event budgets.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling before `now` is a logic error (panics in debug builds); in
    /// release builds the event is clamped to `now` so the simulation can
    /// only ever lose sub-nanosecond precision, never causality.
    #[inline]
    pub fn schedule(&mut self, at: Ns, event: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, event);
    }

    /// Takes the next FIFO ticket without queueing anything. An event
    /// later queued with it by [`EventQueue::schedule_reserved`] pops as if
    /// it had been scheduled at the moment of the reservation: ahead of
    /// every same-instant event scheduled after it.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at absolute time `at` under a ticket taken from
    /// [`EventQueue::reserve_seq`]. A ticket may be queued again after its
    /// event popped (a timer slot re-queues itself), but two events must
    /// never be pending under one ticket. Same `now` rules as
    /// [`EventQueue::schedule`].
    pub fn schedule_reserved(&mut self, at: Ns, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event at {at} before now {}",
            self.now
        );
        debug_assert!(seq < self.next_seq, "ticket {seq} was never reserved");
        let at = at.max(self.now);
        self.heap.push(Reverse((Key { at, seq }, EventSlot(event))));
        self.depth_high_water = self.depth_high_water.max(self.heap.len());
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Ns, event: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule(at, event);
    }

    /// Pops the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        let Reverse((key, EventSlot(event))) = self.heap.pop()?;
        debug_assert!(key.at >= self.now, "event queue went backwards");
        self.now = key.at;
        self.popped += 1;
        Some((key.at, event))
    }

    /// Pops the next event only if it is at or before `deadline`.
    pub fn pop_until(&mut self, deadline: Ns) -> Option<(Ns, E)> {
        match self.heap.peek() {
            Some(Reverse((key, _))) if key.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Ns> {
        self.heap.peek().map(|Reverse((key, _))| key.at)
    }

    /// Every pending event with its time, in no particular order (for
    /// introspection; pop order is `(time, FIFO seq)`).
    pub fn pending(&self) -> impl Iterator<Item = (Ns, &E)> {
        self.heap
            .iter()
            .map(|Reverse((key, EventSlot(e)))| (key.at, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Ns(30), 3);
        q.schedule(Ns(10), 1);
        q.schedule(Ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Ns(5), ());
        q.schedule(Ns(9), ());
        assert_eq!(q.now(), Ns::ZERO);
        q.pop();
        assert_eq!(q.now(), Ns(5));
        q.pop();
        assert_eq!(q.now(), Ns(9));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), "first");
        q.pop();
        q.schedule_in(Ns(50), "second");
        assert_eq!(q.pop(), Some((Ns(150), "second")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "a");
        q.schedule(Ns(20), "b");
        assert_eq!(q.pop_until(Ns(15)), Some((Ns(10), "a")));
        assert_eq!(q.pop_until(Ns(15)), None);
        assert_eq!(q.pop_until(Ns(25)), Some((Ns(20), "b")));
    }

    #[test]
    #[should_panic(expected = "before now")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), ());
        q.pop();
        q.schedule(Ns(50), ());
    }

    #[test]
    fn reserved_ticket_pops_ahead_of_later_same_instant_pushes() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "before");
        let ticket = q.reserve_seq();
        q.schedule(Ns(10), "after");
        q.schedule(Ns(5), "earlier");
        q.schedule_reserved(Ns(10), ticket, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["earlier", "before", "reserved", "after"]);
    }

    #[test]
    fn a_ticket_can_be_queued_again_after_its_event_popped() {
        let mut q = EventQueue::new();
        let ticket = q.reserve_seq();
        q.schedule_reserved(Ns(10), ticket, "early pop");
        q.schedule(Ns(20), "plain");
        assert_eq!(q.pop(), Some((Ns(10), "early pop")));
        // The slot re-queues itself at its real deadline: it keeps the
        // place it reserved before "plain" was scheduled.
        q.schedule_reserved(Ns(20), ticket, "deadline");
        assert_eq!(q.pop(), Some((Ns(20), "deadline")));
        assert_eq!(q.pop(), Some((Ns(20), "plain")));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_monotonic() {
        let mut q = EventQueue::new();
        let mut last = Ns::ZERO;
        q.schedule(Ns(1), 0u64);
        let mut produced = 0u64;
        while let Some((t, n)) = q.pop() {
            assert!(t >= last);
            last = t;
            if produced < 1000 {
                produced += 1;
                // Schedule two children with pseudo-random-ish offsets.
                q.schedule(t + Ns(1 + (n * 7919) % 13), produced);
            }
        }
        assert_eq!(q.events_processed(), 1001);
    }
}
