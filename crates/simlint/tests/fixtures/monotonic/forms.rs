//! Binding-form fixtures for the monotonicity pass: a type-annotated
//! `let` feeding a sink, a `let` inside a closure feeding a sink, a sink
//! nested in another sink's argument, and a pattern `let` (which binds
//! nothing, so its timestamp stays unknown and silent).

pub struct Clock {
    q: EventQueue,
    lead: u64,
}

impl Clock {
    pub fn typed_let(&mut self, now: Ns, d: Ns) {
        let t: Ns = now - d;
        self.q.schedule(t, 1);
    }

    pub fn closure_let(&mut self, now: u64) {
        let mut arm = |q: &mut EventQueue| {
            let at = now - self.lead;
            q.schedule(at, 2);
        };
        arm(&mut self.q);
    }

    pub fn nested_sink(&mut self, now: u64) {
        self.q.schedule(now + self.q.schedule(now - 1, 3), 4);
    }

    pub fn pattern_let(&mut self, now: u64) {
        let Some(at) = self.next_due(now - 1) else {
            return;
        };
        self.q.schedule(at, 5);
    }
}
