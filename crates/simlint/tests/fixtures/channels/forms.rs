//! Binding-form fixtures for the channel pass: a `mut` receiver, a
//! type-annotated tuple, a creation inside a closure, and a pattern
//! `let` (which creates no endpoints).

use std::sync::mpsc::{self, Receiver, Sender};

pub fn mut_receiver() {
    let (tx, mut rx) = mpsc::channel::<u64>();
    tx.send(1);
    let _ = rx.try_recv();
}

pub fn typed_pair() {
    let (tx, rx): (Sender<u64>, Receiver<u64>) = mpsc::channel();
    tx.send(2);
    let _ = rx.try_recv();
}

pub fn closure_let() {
    let spawn = || {
        let (tx, rx) = mpsc::channel::<u64>();
        tx.send(3);
        rx
    };
    let _ = spawn();
}

pub fn pattern_let() {
    let Some(rx) = take_receiver() else {
        return;
    };
    let _ = rx.try_recv();
}
