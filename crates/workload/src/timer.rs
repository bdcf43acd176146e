//! Per-flow transport timer slots: at most one queued event per timer.
//!
//! A transport timer's deadline moves on nearly every packet — the RTO
//! restarts on each ACK, the delayed ACK arms and clears per segment
//! pair. Scheduling a fresh event on every move and letting the stale
//! ones pop as no-ops made dead timers a third of all dispatches. A
//! [`TimerSlot`] keeps one event in the queue instead and still fires
//! the timer from the `(time, FIFO seq)` slot that one-push-per-move
//! would have fired from:
//!
//! * every deadline change reserves a FIFO ticket
//!   ([`EventQueue::reserve_seq`]) — the seq that change's push would
//!   have taken;
//! * a deadline that moves later pushes nothing: the queued event pops
//!   early and re-queues itself at `(deadline, ticket)`;
//! * a deadline that moves earlier than the queued event pushes a new
//!   event at the new time, and the old one is ignored when it pops;
//! * only a pop at the deadline itself fires the timer, and the change
//!   that follows a fire reserves a fresh ticket.
//!
//! One-push-per-move fired from the first of its events queued at the
//! deadline: the push of the change that set that deadline. The slot
//! queues exactly that `(time, seq)`, with one exception: a deadline that
//! returns to a nanosecond value it held earlier, while that value is
//! still in the future, fires from the later change's ticket — the same
//! instant, but behind any same-instant events scheduled between the two
//! changes. Delayed-ACK deadlines never repeat (each is `now + constant`
//! at a distinct arrival); an RTO deadline repeats only if the RTO
//! shrinks by exactly the time elapsed since the earlier change.

use ms_dcsim::{EventQueue, Ns};

/// The queue presence of one transport timer.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimerSlot {
    /// The armed deadline (`None`: disarmed), clamped to `now` when set.
    deadline: Option<Ns>,
    /// The FIFO ticket reserved when `deadline` last changed.
    ticket: u64,
    /// The time of this slot's one live event in the queue.
    queued_at: Option<Ns>,
    /// Events of this slot still queued behind a later push at an
    /// earlier time; each is ignored when it pops.
    stale: u32,
}

impl TimerSlot {
    /// Follows the timer's `next` deadline, as of the queue's `now`.
    /// `event` is this slot's queue event, pushed only when no queued
    /// event pops at or before the new deadline.
    pub(crate) fn sync<E>(&mut self, q: &mut EventQueue<E>, next: Option<Ns>, event: E) {
        let due = next.map(|t| t.max(q.now()));
        if due == self.deadline {
            return;
        }
        self.deadline = due;
        let Some(due) = due else {
            return;
        };
        self.ticket = q.reserve_seq();
        if self.queued_at.is_none_or(|at| due < at) {
            self.stale += u32::from(self.queued_at.is_some());
            q.schedule_reserved(due, self.ticket, event);
            self.queued_at = Some(due);
        }
    }

    /// Handles one of this slot's events popping at `now`. Returns whether
    /// the timer is due: the caller then runs the transport's `on_timer`
    /// and syncs the slot again. An early pop re-queues `event` at the
    /// deadline under the reserved ticket; a superseded one is ignored.
    pub(crate) fn pop<E>(&mut self, q: &mut EventQueue<E>, now: Ns, event: E) -> bool {
        if self.queued_at != Some(now) {
            self.stale = self.stale.saturating_sub(1);
            return false;
        }
        self.queued_at = None;
        match self.deadline {
            Some(deadline) if deadline > now => {
                q.schedule_reserved(deadline, self.ticket, event);
                self.queued_at = Some(deadline);
                false
            }
            Some(_) => {
                self.deadline = None;
                true
            }
            None => false,
        }
    }

    /// Events of this slot in the queue: the live one plus the stale.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        usize::from(self.queued_at.is_some()) + self.stale as usize
    }

    /// Stale events of this slot in the queue.
    #[cfg(test)]
    pub(crate) fn stale(&self) -> usize {
        self.stale as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scheme the slot replaces — push on every deadline change,
    /// clear the deadline on every pop, fire on every pop that finds the
    /// timer due — or the slot itself.
    enum Scheme {
        PushPerMove(Option<Ns>),
        Slot(TimerSlot),
    }

    impl Scheme {
        fn sync(&mut self, q: &mut EventQueue<u8>, next: Option<Ns>) {
            match self {
                Scheme::PushPerMove(deadline) => {
                    let due = next.map(|t| t.max(q.now()));
                    if due != *deadline {
                        *deadline = due;
                        if let Some(due) = due {
                            q.schedule(due, TIMER);
                        }
                    }
                }
                Scheme::Slot(slot) => slot.sync(q, next, TIMER),
            }
        }

        /// One timer event popped at `now` with the transport armed at
        /// `armed`: whether the timer fires.
        fn pop(&mut self, q: &mut EventQueue<u8>, now: Ns, armed: Option<Ns>) -> bool {
            match self {
                Scheme::PushPerMove(deadline) => {
                    *deadline = None;
                    armed.is_some_and(|d| d <= now)
                }
                Scheme::Slot(slot) => slot.pop(q, now, TIMER),
            }
        }
    }

    /// Queue payloads of the harness: the timer, a clock step to the
    /// next change, and the per-change markers.
    const TIMER: u8 = 0;
    const STEP: u8 = 1;

    /// Drives both schemes through one script of `(at, next deadline,
    /// marker time)` changes and returns each scheme's pop order as
    /// `(time, payload)`. At `at` the transport re-arms to `next`, and a
    /// plain marker event is scheduled for the marker time, so markers
    /// tie with timer events at the same instant. A timer payload is
    /// logged only when it fires; a fire disarms until the next change.
    fn run(script: &[(u64, Option<u64>, u64)]) -> [Vec<(u64, u8)>; 2] {
        let schemes = [
            Scheme::PushPerMove(None),
            Scheme::Slot(TimerSlot::default()),
        ];
        schemes.map(|mut scheme| {
            let mut log = Vec::new();
            let mut q: EventQueue<u8> = EventQueue::new();
            let mut armed: Option<Ns> = None;
            let mut changes = script.iter().zip(2u8..);
            let mut pending = changes.next();
            if let Some(((at, _, _), _)) = pending {
                q.schedule(Ns(*at), STEP);
            }
            while let Some((now, ev)) = q.pop() {
                match ev {
                    STEP => {
                        let ((_, next, mark_at), mark) = pending.expect("a step per change");
                        q.schedule(Ns(*mark_at), mark);
                        armed = next.map(Ns);
                        scheme.sync(&mut q, armed);
                        pending = changes.next();
                        if let Some(((at, _, _), _)) = pending {
                            q.schedule(Ns(*at), STEP);
                        }
                    }
                    TIMER => {
                        if scheme.pop(&mut q, now, armed) {
                            log.push((now.as_nanos(), TIMER));
                            armed = None;
                        }
                        scheme.sync(&mut q, armed);
                    }
                    mark => log.push((now.as_nanos(), mark)),
                }
            }
            log
        })
    }

    fn assert_same(script: &[(u64, Option<u64>, u64)]) {
        let [old, slot] = run(script);
        assert_eq!(old, slot, "script {script:?}");
        assert!(old.iter().any(|&(_, ev)| ev == TIMER), "{old:?}");
    }

    #[test]
    fn later_moves_fire_once_at_the_final_deadline() {
        assert_same(&[(0, Some(100), 0), (10, Some(110), 10), (20, Some(120), 20)]);
    }

    #[test]
    fn earlier_moves_fire_at_the_new_deadline_and_skip_the_old_event() {
        assert_same(&[(0, Some(500), 500), (10, Some(50), 50), (60, Some(300), 60)]);
    }

    #[test]
    fn a_fire_keeps_its_place_among_same_instant_events() {
        // Marker scheduled for 100 after the deadline change at 0: the
        // fire pops ahead of it.
        assert_same(&[(0, Some(100), 100), (100, Some(200), 100)]);
        // Moved later at 50 and re-queued at 150 under the ticket of the
        // change at 50: behind the marker scheduled at 0 for 150, ahead of
        // the one scheduled at 60 (an unchanged deadline reserves nothing).
        assert_same(&[
            (0, Some(100), 150),
            (50, Some(150), 50),
            (60, Some(150), 150),
        ]);
    }

    #[test]
    fn disarm_and_rearm_at_the_queued_time_keeps_the_old_event() {
        // Disarmed at 10, re-armed at 20 to the still-queued 100, with a
        // marker for 100 scheduled in between: the first push at 100 is
        // the one both schemes fire from.
        assert_same(&[(0, Some(100), 0), (10, None, 100), (20, Some(100), 20)]);
    }

    #[test]
    fn a_deadline_back_at_an_earlier_future_value_takes_the_later_ticket() {
        // The documented exception. Queued at 50; the deadline moves to
        // 100 (ticket A), "other" is scheduled for 100, the deadline
        // moves to 150 and back to 100 (ticket B). Push-per-move still
        // had ticket A's event queued at 100 and fired ahead of "other";
        // the slot re-queues under ticket B, behind it.
        let mut q: EventQueue<&str> = EventQueue::new();
        let mut slot = TimerSlot::default();
        slot.sync(&mut q, Some(Ns(50)), "timer");
        slot.sync(&mut q, Some(Ns(100)), "timer");
        q.schedule(Ns(100), "other");
        slot.sync(&mut q, Some(Ns(150)), "timer");
        slot.sync(&mut q, Some(Ns(100)), "timer");
        assert_eq!(q.pop(), Some((Ns(50), "timer")));
        assert!(!slot.pop(&mut q, Ns(50), "timer"), "early pop re-queues");
        assert_eq!(q.pop(), Some((Ns(100), "other")));
        assert_eq!(q.pop(), Some((Ns(100), "timer")));
        assert!(slot.pop(&mut q, Ns(100), "timer"));
    }

    #[test]
    fn matches_push_per_move_over_pseudo_random_scripts() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut fires = 0;
        for _ in 0..2_000 {
            let mut script = Vec::new();
            let mut at = 0;
            let mut set: Vec<u64> = Vec::new();
            for _ in 0..12 {
                at += rand(40);
                // `now + delay`, as the transport arms its timers, on a
                // coarse grid so deadlines and markers often tie. A
                // deadline equal to an earlier still-future one is the
                // documented exception and is drawn again.
                let next = loop {
                    let d = at + 1 + rand(12) * 10;
                    if !set.iter().any(|&s| s == d && s > at) {
                        break d;
                    }
                };
                set.push(next);
                let mark_at = at + 1 + rand(13) * 10;
                script.push((at, (rand(5) > 0).then_some(next), mark_at));
            }
            let [old, slot] = run(&script);
            assert_eq!(old, slot, "script {script:?}");
            fires += old.iter().filter(|&&(_, ev)| ev == TIMER).count();
        }
        assert!(fires > 2_000, "the scripts must exercise fires: {fires}");
    }
}
