//! Layer micro-benchmarks: the inner public APIs the pipeline cannot time from
//! outside, fed workload-shaped inputs (the workload's packet size,
//! drop-heavy arrivals). Each reports the median of five equal batches.

use crate::measure::{median, Report};
use millisampler::{Direction, FilterState, PacketMeta, RunConfig, TcFilter};
use ms_dcsim::{
    EventQueue, FlowId, Ns, Packet, PolicyKind, SharedBufferSwitch, SimRng, SwitchConfig,
};
use ms_transport::{CcAlgorithm, Receiver, Sender, SenderConfig};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Nanoseconds per operation: the median over `BATCHES` batches of
/// `ops` calls to `op` (which is handed the running operation index).
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..ops {
            op(i);
            i += 1;
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// Runs every micro-benchmark and reports its metrics.
pub fn run(mss: u32, rep: &mut Report) {
    event_queue(rep);
    switch(mss, rep);
    transport(mss, rep);
    ecmp(rep);
    sampler(mss, rep);
}

/// `EventQueue` schedule + pop at a steady depth.
fn event_queue(rep: &mut Report) {
    for (tag, depth) in [("d16", 16u64), ("d1k", 1024), ("d64k", 65_536)] {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::new(depth);
        for i in 0..depth {
            q.schedule(Ns(rng.gen_range(1_000_000)), i);
        }
        let ns = ns_per_op(400_000, |_| {
            let (at, ev) = q.pop().expect("the queue is kept at its depth");
            q.schedule(at + Ns(1 + rng.gen_range(1_000_000)), black_box(ev));
        });
        rep.layer(&format!("dcsim.queue_sched_pop_ns.{tag}"), ns, "ns");
    }
}

/// `SharedBufferSwitch` enqueue + dequeue under each buffer policy, with
/// an incast onto four of sixteen ports arriving faster than they drain,
/// so admission keeps running at the threshold and drops.
fn switch(mss: u32, rep: &mut Report) {
    for kind in [
        PolicyKind::DtAlpha,
        PolicyKind::CompleteSharing,
        PolicyKind::StaticPartition,
        PolicyKind::FlexibleBounds,
        PolicyKind::DelayDriven,
    ] {
        let mut sw = SharedBufferSwitch::new(SwitchConfig::meta_tor(16));
        sw.set_policy(kind.spec_with_alpha(1.0));
        let mut rng = SimRng::new(7);
        let ns = ns_per_op(400_000, |i| {
            let hot = rng.gen_range(4) as usize;
            let queue = if rng.gen_range(8) == 0 {
                4 + rng.gen_range(12) as usize
            } else {
                hot
            };
            let pkt = Packet::data(
                FlowId(rng.gen_range(256)),
                100,
                queue as u32,
                i * u64::from(mss),
                mss,
            );
            black_box(sw.try_enqueue(queue, pkt, Ns(i * 100)));
            // Drain two of every three arrivals: the hot queues stay full.
            if i % 3 != 0 {
                black_box(sw.dequeue(hot, Ns(i * 100)));
            }
        });
        rep.layer(
            &format!("dcsim.switch_enq_deq_ns.{}", kind.label()),
            ns,
            "ns",
        );
    }
}

/// `Sender`/`Receiver` over a lossy path: each round trip delivers what
/// the sender sent (2 % dropped), feeds back the ACKs, and fires both
/// timers at the round's end, as the engine's timer events do.
fn transport(mss: u32, rep: &mut Report) {
    let cfg = SenderConfig {
        mss,
        algorithm: CcAlgorithm::Dctcp,
        ..SenderConfig::default()
    };
    let mut rng = SimRng::new(11);
    let (mut poll, mut data, mut ack, mut timer) = ([0u128; 2], [0u128; 2], [0u128; 2], [0u128; 2]);
    let time = |acc: &mut [u128; 2], calls: u128, t0: Instant| {
        acc[0] += t0.elapsed().as_nanos();
        acc[1] += calls;
    };
    for flow in 0..200u64 {
        let mut sender = Sender::new(FlowId(flow), 1, 2, &cfg);
        let mut receiver = Receiver::new(FlowId(flow), 2, 1);
        sender.push(4_000_000);
        sender.close();
        let mut now = Ns(0);
        let mut wire: Vec<Packet> = Vec::new();
        let mut rounds = 0;
        while !sender.is_complete() && rounds < 20_000 {
            rounds += 1;
            let t0 = Instant::now();
            wire.extend(sender.poll_send(now));
            time(&mut poll, 1, t0);
            now += Ns::from_micros(5);
            let mut acks = Vec::new();
            let t0 = Instant::now();
            let mut delivered = 0;
            for p in wire.drain(..) {
                if rng.gen_range(50) != 0 {
                    delivered += 1;
                    acks.extend(receiver.on_data(now, black_box(&p)));
                }
            }
            time(&mut data, delivered, t0);
            now += Ns::from_micros(5);
            let t0 = Instant::now();
            for a in &acks {
                wire.extend(sender.on_ack(now, black_box(a)));
            }
            time(&mut ack, acks.len() as u128, t0);
            if wire.is_empty() {
                // Idle path: jump to the earliest armed deadline.
                if let Some(at) = [sender.next_timer(), receiver.next_timer()]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    now = now.max(at);
                }
            }
            let t0 = Instant::now();
            wire.extend(sender.on_timer(now));
            if let Some(a) = receiver.on_timer(now) {
                wire.extend(sender.on_ack(now, &a));
            }
            time(&mut timer, 2, t0);
        }
    }
    let per = |acc: [u128; 2]| acc[0] as f64 / acc[1].max(1) as f64;
    rep.layer("transport.poll_send_ns", per(poll), "ns");
    rep.layer("transport.on_data_ns", per(data), "ns");
    rep.layer("transport.on_ack_ns", per(ack), "ns");
    rep.layer("transport.on_timer_ns", per(timer), "ns");
}

/// ECMP next hop: a k = 4 fat tree's two-way choice.
fn ecmp(rep: &mut Report) {
    let hash = ms_topo::EcmpHash::new(3);
    let ns = ns_per_op(2_000_000, |i| {
        black_box(hash.pick(black_box(i), i % 16, (i >> 4) % 16, i % 20, 2));
    });
    rep.layer("topo.ecmp_ns", ns, "ns");
}

/// `TcFilter::record` with flow counting on, over a 24-server rack's
/// ingress and egress, then the per-run `read`.
fn sampler(mss: u32, rep: &mut Report) {
    let cfg = RunConfig {
        count_flows: true,
        ..RunConfig::one_ms()
    };
    let mut filter = TcFilter::new(&cfg, 24);
    filter.attach();
    filter.enable();
    let ns = ns_per_op(400_000, |i| {
        let meta = PacketMeta {
            direction: if i % 3 == 0 {
                Direction::Egress
            } else {
                Direction::Ingress
            },
            bytes: mss,
            ecn_ce: i % 17 == 0,
            retx_bit: i % 101 == 0,
            flow_hash: ms_sketch::mix64(i % 500),
        };
        // One packet per microsecond across the 2 s window.
        filter.record(
            (i % 24) as usize,
            Ns((i % 1_999_000) * 1_000),
            black_box(&meta),
        );
        if filter.state() != FilterState::Enabled {
            filter.enable();
        }
    });
    rep.layer("millisampler.record_ns", ns, "ns");
    let mut reads = Vec::new();
    for host in 0..BATCHES as u32 {
        let t0 = Instant::now();
        black_box(filter.read(host));
        reads.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    rep.layer("millisampler.read_us", median(&reads), "us");
}
