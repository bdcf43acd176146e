//! The traced run: the workload's cells through the repository's runner
//! at jobs = nproc and jobs = 1 (untraced), then once more in the
//! benchmark's own serial loop, which times every call it makes into a
//! layer's public functions and reads the engine profiler; then the lake
//! those traced cells wrote, and the layer micro-benchmarks.

use crate::cells::{self, run_cells, Query, Runner};
use crate::json::Json;
use crate::measure::{fnv64, median, now_ns, nproc, timed, Report};
use crate::micro;
use ms_analysis::{analyze_run, BurstRow, RunOutcome};
use ms_fleet::{CellResult, FleetCell, FleetConfig, FleetReport};
use ms_lake::{CellRows, Lake, LakeConfig, LakeWriter};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Engine event kinds reported one by one (the kinds any workload
/// dispatches; any other kind is printed, not reported).
pub const KINDS: [&str; 12] = [
    "Gen",
    "StartFlow",
    "StartTopoFlow",
    "TorArrive",
    "TorDrain",
    "SwArrive",
    "SwDrain",
    "HostDeliver",
    "SourceDeliver",
    "SenderTimer",
    "ReceiverTimer",
    "Chatter",
];

/// What the traced run measures.
pub struct TraceInput<'a> {
    /// The workload's simulated cells.
    pub cells: &'a [FleetCell],
    /// The runner the untraced workload uses for them.
    pub runner: Runner,
    /// Rows appended to the traced lake after the cells (`lake_scan`'s
    /// corpus), not part of the runner comparison.
    pub extra_rows: Vec<CellRows>,
    /// Packet size the layer micro-benchmarks use.
    pub mss: u32,
}

/// Per-cell wall times of the traced serial loop, in seconds.
#[derive(Default)]
struct CellTimes {
    build: Vec<f64>,
    run: Vec<f64>,
    analyze: Vec<f64>,
    encode: Vec<f64>,
    append: Vec<f64>,
}

/// Engine-profiler totals over every traced cell.
#[derive(Default)]
struct Dispatch {
    count: BTreeMap<String, u64>,
    wall_ns: BTreeMap<String, u64>,
}

impl Dispatch {
    /// Folds one sim's `EngineProfile::counts_json`.
    fn add(&mut self, counts_json: &str) -> Result<(), String> {
        let j = Json::parse(counts_json)?;
        let kinds = |section: Option<&Json>, into: &mut BTreeMap<String, u64>| {
            for (k, v) in section.and_then(Json::as_obj).into_iter().flatten() {
                let event = k.rsplit('.').next().unwrap_or(k).to_string();
                *into.entry(event).or_default() += v.as_f64().unwrap_or(0.0) as u64;
            }
        };
        kinds(j.get("dispatch"), &mut self.count);
        kinds(
            j.get("wall").and_then(|w| w.get("by_kind")),
            &mut self.wall_ns,
        );
        Ok(())
    }

    fn total(&self) -> u64 {
        self.count.values().sum()
    }
}

/// Runs the traced measurement and emits every per-layer metric.
pub fn trace(input: &TraceInput, work: &Path, rep: &mut Report) -> Result<(), String> {
    let cells = input.cells;
    let jobs = nproc();
    let par = run_cells(cells, input.runner, jobs, &work.join("jobs_n"))?;
    let ser = run_cells(cells, input.runner, 1, &work.join("jobs_1"))?;
    rep.attempted += 2 * cells.len() as u64;
    rep.failed += par.failed + ser.failed;
    if par.csv != ser.csv {
        rep.problem(String::from(
            "outcome CSV differs between jobs=1 and jobs=nproc",
        ));
    }
    rep.info(
        "outcome_digest_jobs_n",
        format!("{:016x}", fnv64(par.csv.as_bytes())),
    );
    rep.info(
        "outcome_digest_jobs_1",
        format!("{:016x}", fnv64(ser.csv.as_bytes())),
    );

    // The traced serial loop: the runner's per-cell work, every layer
    // call timed, plus the lake rows for the lake pass.
    let lake_dir = work.join("traced");
    let _ = std::fs::remove_dir_all(&lake_dir);
    let writer = LakeWriter::create(&lake_dir, LakeConfig::default()).map_err(|e| e.to_string())?;
    let mut shard = writer
        .shard_writer_named("traced")
        .map_err(|e| e.to_string())?;
    let link = FleetConfig::default().link_bps;
    let slack = FleetConfig::default().loss_slack;
    let mut t = CellTimes::default();
    let mut dispatch = Dispatch::default();
    let mut results: Vec<CellResult> = Vec::new();
    let (mut events, mut ingress, mut discards, mut forensics) = (0u64, 0u64, 0u64, 0u64);
    let mut tiers = [0u64; 3];
    for (idx, cell) in cells.iter().enumerate() {
        let attempt = catch_unwind(AssertUnwindSafe(
            || -> Result<(CellRows, RunOutcome), String> {
                let (b, mut sim) = timed(|| cell.spec.build());
                sim.set_profile_clock(now_ns);
                let (r, report) = timed(|| sim.run_sync_window(0));
                t.build.push(b);
                t.run.push(r);
                dispatch.add(&sim.profile().counts_json())?;
                let cell_tiers = sim.tier_discard_bytes();
                if cell_tiers.iter().sum::<u64>() != sim.switch_discards() {
                    return Err(format!(
                        "{}: tier discard bytes {cell_tiers:?} do not sum to switch discards",
                        cell.label
                    ));
                }
                for (sum, v) in tiers.iter_mut().zip(cell_tiers) {
                    *sum += v;
                }
                let records = sim
                    .telemetry()
                    .map(|hub| hub.borrow().forensics.records().to_vec())
                    .unwrap_or_default();
                forensics += records.len() as u64;
                events += report.events;
                ingress += report.switch_ingress_bytes;
                discards += report.switch_discard_bytes;
                let (a, analysis) = timed(|| {
                    report
                        .rack_run
                        .as_ref()
                        .map(|run| analyze_run(run, link, slack))
                });
                t.analyze.push(a);
                let mut outcome = match &analysis {
                    Some(analysis) => RunOutcome::from_analysis(
                        analysis,
                        report.switch_ingress_bytes,
                        report.switch_discard_bytes,
                        report.flows_started,
                        report.conns_completed,
                        report.events,
                    ),
                    None => {
                        let mut o = RunOutcome::empty();
                        o.switch_ingress_bytes = report.switch_ingress_bytes;
                        o.switch_discard_bytes = report.switch_discard_bytes;
                        o.flows_started = report.flows_started;
                        o.conns_completed = report.conns_completed;
                        o.events = report.events;
                        o
                    }
                };
                outcome.policy = cell.spec.policy.kind();
                let (e, bytes) = timed(|| outcome.encode());
                t.encode.push(e);
                if RunOutcome::decode(&bytes).ok().as_ref() != Some(&outcome) {
                    return Err(format!(
                        "{}: RunOutcome codec does not round-trip",
                        cell.label
                    ));
                }
                let bursts = analysis
                    .iter()
                    .flat_map(|a| a.bursts.iter())
                    .map(|cb| BurstRow::from_classified(idx as u32, cb))
                    .collect();
                let rows = CellRows {
                    cell: idx as u64,
                    label: cell.label.clone(),
                    outcome: Some(Ok(outcome.clone())),
                    bursts,
                    series: report.rack_run.map(|run| run.servers).unwrap_or_default(),
                    forensics: records,
                };
                Ok((rows, outcome))
            },
        ));
        rep.attempted += 1;
        let (rows, outcome) = match attempt {
            Ok(Ok(done)) => done,
            Ok(Err(problem)) => {
                rep.failed += 1;
                rep.problem(problem);
                continue;
            }
            Err(_) => {
                rep.failed += 1;
                rep.problem(format!("{}: traced cell panicked", cell.label));
                continue;
            }
        };
        let (a, appended) = timed(|| shard.append(&rows));
        appended.map_err(|e| e.to_string())?;
        t.append.push(a);
        results.push(CellResult {
            label: cell.label.clone(),
            outcome: Ok(outcome),
        });
    }
    for rows in &input.extra_rows {
        let (a, appended) = timed(|| shard.append(rows));
        appended.map_err(|e| e.to_string())?;
        t.append.push(a);
    }
    shard.finish().map_err(|e| e.to_string())?;
    let (compact_s, manifest) = timed(|| writer.compact());
    let manifest = manifest.map_err(|e| e.to_string())?;
    let lake = Lake::open(&lake_dir).map_err(|e| e.to_string())?;

    // Output checks: the traced loop reproduces the runners, and the
    // lake's outcomes report equals the in-memory outcome CSV.
    let memory_csv = FleetReport { results }.to_csv();
    let lake_csv = ms_lake::outcomes_csv(&lake).map_err(|e| e.to_string())?;
    if memory_csv != par.csv {
        rep.problem(String::from("traced outcomes differ from the runner's"));
    }
    if lake_csv != memory_csv {
        rep.problem(String::from(
            "lake outcomes report differs from the in-memory outcome CSV",
        ));
    }
    if forensics > 0 {
        for m in cells::forensic_mismatches(&lake)? {
            rep.problem(m);
        }
    }

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let n = cells.len().max(1) as f64;
    let cell_work = sum(&t.build) + sum(&t.run) + sum(&t.analyze) + sum(&t.encode);
    // The per-cell work the jobs=1 runner did, plus the clocks. The
    // traced compaction is left out: it also compacts `extra_rows`.
    let traced_wall = match input.runner {
        Runner::Memory => cell_work,
        Runner::Lake => cell_work + sum(&t.append[..cells.len().min(t.append.len())]),
    };
    let total = dispatch.total();
    let accounted_ns: u64 = dispatch.wall_ns.values().sum();
    let timers = dispatch.count.get("SenderTimer").copied().unwrap_or(0)
        + dispatch.count.get("ReceiverTimer").copied().unwrap_or(0);
    rep.layer("workload.events", events as f64, "count");
    for kind in KINDS {
        let count = dispatch.count.get(kind).copied().unwrap_or(0);
        let wall = dispatch.wall_ns.get(kind).copied().unwrap_or(0);
        rep.layer(&format!("workload.dispatch.{kind}"), count as f64, "count");
        rep.layer(
            &format!("workload.dispatch_ns.{kind}"),
            ratio(wall as f64, count as f64),
            "ns",
        );
    }
    for (kind, count) in &dispatch.count {
        if !KINDS.contains(&kind.as_str()) {
            rep.info(&format!("workload.dispatch.{kind}"), count);
        }
    }
    rep.layer(
        "workload.ns_per_event",
        ratio(ser.wall_s * 1e9, events as f64),
        "ns",
    );
    rep.layer(
        "workload.unaccounted_frac",
        1.0 - ratio(accounted_ns as f64, sum(&t.run) * 1e9),
        "share",
    );
    rep.layer("workload.build_ms", sum(&t.build) / n * 1e3, "ms");
    rep.layer(
        "transport.timer_dispatch_frac",
        ratio(timers as f64, total as f64),
        "share",
    );
    rep.layer(
        "dcsim.switch_drop_frac",
        ratio(discards as f64, ingress as f64),
        "share",
    );
    for (tier, bytes) in ["tor", "agg", "spine"].iter().zip(tiers) {
        rep.layer(
            &format!("topo.tier_discard_bytes.{tier}"),
            bytes as f64,
            "B",
        );
    }
    rep.layer("telemetry.forensics", forensics as f64, "count");
    rep.layer(
        "telemetry.trace_overhead_frac",
        traced_wall / ser.wall_s - 1.0,
        "share",
    );
    rep.layer("analysis.analyze_ms", sum(&t.analyze) / n * 1e3, "ms");
    rep.layer("analysis.encode_us", sum(&t.encode) / n * 1e6, "us");
    rep.layer(
        "fleet.parallel_eff",
        ser.wall_s / (jobs as f64 * par.wall_s),
        "share",
    );
    rep.info("events", events);
    rep.info("switch_discard_bytes", discards);
    rep.info("jobs", jobs);

    lake_pass(&lake, &manifest, &t.append, compact_s, rep)?;
    micro::run(input.mss, rep);
    Ok(())
}

/// The lake layer over the traced lake: writes (timed above), segment
/// verification, every report, and full scans.
fn lake_pass(
    lake: &Lake,
    manifest: &ms_lake::LakeManifest,
    append_s: &[f64],
    compact_s: f64,
    rep: &mut Report,
) -> Result<(), String> {
    let (verify_s, verified) = timed(|| -> Result<(), String> {
        for e in &manifest.entries {
            let bytes = std::fs::read(lake.dir.join(&e.file)).map_err(|err| err.to_string())?;
            let rows = ms_lake::verify_segment_bytes(&bytes)
                .map_err(|err| format!("{}: {err}", e.file))?;
            if rows != e.rows {
                return Err(format!(
                    "{}: manifest says {} rows, file has {rows}",
                    e.file, e.rows
                ));
            }
        }
        Ok(())
    });
    verified?;
    let (mut scan_s, mut rows, mut chunks) = (0.0, 0u64, 0u64);
    for q in cells::queries() {
        // Median of three runs: single report calls are sub-millisecond.
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let (s, r) = timed(|| cells::run_query(lake, q));
            walls.push(s);
            last = Some(r?);
        }
        let r = last.ok_or("query never ran")?;
        match q {
            Query::Report(name, _) => rep.layer(
                &format!("lake.report_ms.{name}"),
                median(&walls) * 1e3,
                "ms",
            ),
            Query::FullScan(_) => {
                scan_s += median(&walls);
                rows += r.rows;
                chunks += r.chunks;
            }
        }
    }
    let all_rows: u64 = manifest.entries.iter().map(|e| e.rows).sum();
    let all_bytes: u64 = manifest.entries.iter().map(|e| e.bytes).sum();
    rep.layer("lake.append_ms", median(append_s) * 1e3, "ms");
    rep.layer("lake.compact_ms", compact_s * 1e3, "ms");
    rep.layer("lake.verify_ms", verify_s * 1e3, "ms");
    rep.layer(
        "lake.scan_ns_per_row",
        ratio(scan_s * 1e9, rows as f64),
        "ns",
    );
    rep.layer("lake.chunks_decoded", chunks as f64, "count");
    rep.layer(
        "lake.bytes_per_row",
        ratio(all_bytes as f64, all_rows as f64),
        "B",
    );
    Ok(())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
