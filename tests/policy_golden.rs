//! Golden byte-identity tests for the simulator's refactors.
//!
//! The `BufferPolicy` redesign moved the Dynamic-Threshold admission
//! test out of `try_enqueue` and its `α·(B−Q)` threshold from an f64
//! multiply to exact integer emulation. The contract is that none of
//! that is observable: a `DtAlpha` switch must reproduce the
//! pre-refactor simulation *byte for byte*, seed for seed — same
//! Perfetto trace, same forensic records (including the recorded
//! threshold values), same analysis outcome bytes.
//!
//! The `GOLDEN` fingerprints below were captured at the commit
//! immediately before the refactor, on the pre-`BufferPolicy` code.
//! They cover dyadic α (0.25, 1.0, 2.0 — where integer math is
//! trivially exact) and the α-tuner path (α = 4/(1+s), non-dyadic
//! values like 4/3 — where the threshold must emulate the f64
//! product's round-to-nearest-even exactly).
//!
//! The `PLANE_GOLDEN` fingerprints pin the forwarding paths those four
//! cases never reach — the trunk hop and its off-switch forensics,
//! multicast replication, chatter, the queue-depth probe, GRO and NIC
//! drop injection, and a cross-pod fat-tree incast. They were captured
//! before the single-rack ToR and the fat-tree switches were folded
//! into one forwarding plane, so that fold is held to the same bar.
//!
//! Each case pins two numbers. The fingerprint folds everything
//! observable *except* the engine's processed-event count, which is
//! pinned on its own: a change that only retires no-op queue entries
//! (dead timer events) moves that count and nothing else, and the
//! split lets it prove exactly that. The fingerprints were captured on
//! the code the full fingerprints above pinned, where those still
//! passed, and held unchanged when per-flow timer slots stopped
//! dispatching dead timer events; only the event counts were re-pinned
//! then (for example 88,215 → 46,550 for seed 7, α = 1).

use ms_analysis::analyze_run;
use ms_dcsim::{Bps, Bytes, Ns};
use ms_telemetry::TelemetryConfig;
use ms_transport::CcAlgorithm;
use ms_workload::sim::{FabricHopConfig, GroConfig};
use ms_workload::{FatTreeOpts, FlowSpec, RackSim, ScenarioBuilder, TopoFlowSpec, TopologySpec};

/// FNV-1a, folded incrementally.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One contended incast (300 conns into one 12.5G downlink) that forces
/// drops, marks, and forensic classification under the given α.
fn dt_alpha_incast(seed: u64, alpha: f64, tune: bool) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(2, seed);
    b.buckets(150)
        .warmup(Ns::from_millis(10))
        .alpha(alpha)
        .telemetry(TelemetryConfig::default())
        .forensics()
        .flow_at(
            Ns::from_millis(20),
            FlowSpec {
                dst_server: 0,
                connections: 300,
                total_bytes: 30_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    if tune {
        b.alpha_tune_period(Ns::from_millis(5));
    }
    b
}

/// Runs one sync window of `scenario` (telemetry must be attached) and
/// folds everything observable into one FNV-1a fingerprint: the
/// Perfetto trace, every forensic record, the ground-truth counters and
/// the analysis outcome bytes. With `plane_state`, the queue-depth probe
/// samples and the per-tier discard split are folded in as well (the
/// four DT-α cases were captured before those were hashed).
///
/// The processed-event count is left out of the fingerprint (zeroed in
/// the counters and the outcome bytes) and returned beside it.
fn run_fingerprint(scenario: &ScenarioBuilder, plane_state: bool) -> (u64, u64, RackSim) {
    let mut sim = scenario.build();
    let report = sim.run_sync_window(0);

    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    // Full event timeline: enqueues, drops (with reasons), ECN marks,
    // spans — any admission-decision or timing drift lands here.
    let mut trace = Vec::new();
    sim.write_perfetto_trace(&mut trace).expect("trace export");
    fnv(&mut h, &trace);
    // Forensic records carry the recorded threshold at each drop, so
    // even a ±1-byte threshold difference that flips no decision fails.
    let hub = sim.telemetry().expect("telemetry attached").clone();
    for f in hub.borrow().forensics.records() {
        fnv(&mut h, format!("{f:?}").as_bytes());
    }
    // Ground-truth counters + the full analysis outcome codec bytes.
    fnv(
        &mut h,
        format!(
            "{} {} {} {} 0",
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
        )
        .as_bytes(),
    );
    if let Some(run) = &report.rack_run {
        let analysis = analyze_run(run, Bps(12_500_000_000), 5);
        let outcome = ms_analysis::RunOutcome::from_analysis(
            &analysis,
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
            report.events,
        );
        // Hash the outcome through the *pre-refactor* 15-field MSO1
        // schema (the `policy` column appended later is a schema change,
        // not a behavior change, so it must not invalidate the captured
        // fingerprints). Any drift in the scalar values still lands here.
        let mut w = millisampler::codec::WireWriter::with_magic(b"MSO1");
        w.u64(outcome.switch_ingress_bytes);
        w.u64(outcome.switch_discard_bytes);
        w.u64(outcome.flows_started);
        w.u64(outcome.conns_completed);
        w.u64(0); // events: pinned separately
        w.u64(outcome.total_in_bytes);
        w.u64(outcome.total_retx_bytes);
        w.u64(outcome.bursts);
        w.u64(outcome.contended_bursts);
        w.u64(outcome.lossy_bursts);
        w.f64(outcome.contention_avg);
        w.u64(u64::from(outcome.contention_p90));
        w.u64(u64::from(outcome.contention_max));
        w.u64(u64::from(outcome.active_servers));
        w.u64(u64::from(outcome.bursty_servers));
        fnv(&mut h, &w.finish());
    }
    if plane_state {
        for (t, occ) in sim.depth_samples() {
            fnv(&mut h, &t.as_nanos().to_le_bytes());
            fnv(&mut h, &occ.as_u64().to_le_bytes());
        }
        for tier in sim.tier_discard_bytes() {
            fnv(&mut h, &tier.to_le_bytes());
        }
    }
    (h, report.events, sim)
}

/// `(seed, alpha, tune, fingerprint, events)`.
const GOLDEN: &[(u64, f64, bool, u64, u64)] = &[
    (7, 1.0, false, 0xc000_51f0_e314_0a8d, 46_550),
    (11, 2.0, false, 0x3bf3_d0d4_8077_74e0, 58_304),
    (13, 0.25, false, 0x3745_e3cb_38a7_d76b, 28_407),
    (7, 1.0, true, 0x3ff0_4b15_67cb_a20f, 65_809),
];

#[test]
fn dt_alpha_reproduces_pre_refactor_traces_seed_for_seed() {
    let mut bad = Vec::new();
    for &(seed, alpha, tune, expected, expected_events) in GOLDEN {
        let (got, events, _) = run_fingerprint(&dt_alpha_incast(seed, alpha, tune), false);
        println!("({seed}, {alpha:?}, {tune}, {got:#018x}, {events}),");
        if got != expected {
            bad.push(format!(
                "seed {seed} alpha {alpha} tune {tune}: fingerprint {got:#018x} != golden {expected:#018x}"
            ));
        }
        if events != expected_events {
            bad.push(format!(
                "seed {seed} alpha {alpha} tune {tune}: {events} events != golden {expected_events}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// A 200-connection incast behind a trunk hop whose 256 KB FIFO
/// overflows: tail drops at the off-switch queue `0xFFFF`, classified
/// `FabricTransient`, upstream of ToR contention.
fn trunk_incast() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(4, 21);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .forensics()
        .fabric_hop(FabricHopConfig {
            rate_bps: Bps(25_000_000_000),
            buffer_bytes: Bytes(256 << 10),
        })
        .flow_at(
            Ns::from_millis(20),
            FlowSpec {
                dst_server: 1,
                connections: 200,
                total_bytes: 20_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    b
}

/// Every single-rack side path at once: a paced multicast burst to
/// three members, keepalive chatter, a depth probe on a queue that also
/// takes an incast, GRO coalescing, and NIC drop injection.
fn rack_side_paths() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(4, 22);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig::default())
        .forensics()
        .gro(GroConfig::default())
        .join_multicast(9, 0)
        .join_multicast(9, 2)
        .join_multicast(9, 3)
        .multicast_burst(Ns::from_millis(30), 9, 400, 1500, Bps(3_000_000_000))
        .chatter(1, 16, 4_000)
        .chatter(2, 8, 2_000)
        .probe_queue_depth(2)
        .nic_drops(3, 5, 0.01)
        .flow_at(
            Ns::from_millis(25),
            FlowSpec {
                dst_server: 2,
                connections: 60,
                total_bytes: 9_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        )
        .flow_at(
            Ns::from_millis(40),
            FlowSpec {
                dst_server: 3,
                connections: 2,
                total_bytes: 2_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: Some(Bps(3_000_000_000)),
                task: 2,
            },
        );
    b
}

/// A k=4 fat tree (16 hosts) where every host outside pod 0 incasts on
/// host 0 over 10 Gbps fabric links with 512 KB switch buffers, so drops
/// land at agg and spine queues as well as the victim's ToR port.
fn tree_cross_pod_incast() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(16, 23);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .forensics()
        .topology(TopologySpec::fat_tree(
            FatTreeOpts {
                k: 4,
                link_gbps: 10,
                buffer_bytes: Bytes(512 << 10),
                ..FatTreeOpts::default()
            },
            3,
        ));
    for src in 4..16u32 {
        b.topo_flow_at(
            Ns::from_millis(20),
            TopoFlowSpec {
                src_host: src,
                dst_host: 0,
                connections: 8,
                total_bytes: 4_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    }
    b
}

/// A plane golden: its name, its scenario, a check that the run reached
/// the path the golden pins, its fingerprint and its event count.
type PlaneGolden = (
    &'static str,
    ScenarioBuilder,
    fn(&RackSim) -> bool,
    u64,
    u64,
);

fn plane_golden() -> [PlaneGolden; 3] {
    [
        (
            "trunk_incast",
            trunk_incast(),
            |sim| sim.fabric_drops() > 0 && sim.forensic_counts()[2] > 0,
            0x146d_a3d4_8599_ed28,
            21_215,
        ),
        (
            "rack_side_paths",
            rack_side_paths(),
            |sim| !sim.depth_samples().is_empty() && sim.forensic_counts()[2] > 0,
            0x970b_f2a1_7a2f_b20a,
            39_830,
        ),
        (
            "tree_cross_pod_incast",
            tree_cross_pod_incast(),
            |sim| {
                let [_, agg, spine] = sim.tier_discard_bytes();
                agg + spine > 0
            },
            0x51db_e44e_36ac_c34d,
            275_969,
        ),
    ]
}

#[test]
fn forwarding_paths_reproduce_pre_fold_runs() {
    let mut bad = Vec::new();
    for (name, scenario, reached, expected, expected_events) in plane_golden() {
        let (got, events, sim) = run_fingerprint(&scenario, true);
        println!("{name}: {got:#018x} {events}");
        if !reached(&sim) {
            bad.push(format!("{name}: the run never reached the path it pins"));
        }
        if got != expected {
            bad.push(format!(
                "{name}: fingerprint {got:#018x} != golden {expected:#018x}"
            ));
        }
        if events != expected_events {
            bad.push(format!(
                "{name}: {events} events != golden {expected_events}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
