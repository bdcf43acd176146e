//! The three workloads. Each sets up its inputs from the seed (timed,
//! several times), measures rounds of work for the run's seconds, and
//! checks the outputs; with `trace` it runs the traced measurement
//! instead.

use crate::cells::{self, run_cells, Runner};
use crate::measure::{fnv64, median, nproc, peak_rss_mb, percentile, rounds, timed, Report};
use crate::traced::{self, TraceInput};
use ms_fleet::FleetCell;
use ms_lake::{CellRows, Lake, LakeConfig, LakeWriter, TableKind};
use std::hint::black_box;
use std::path::Path;

/// One run's arguments.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: every metric, a fraction of the work.
    pub tiny: bool,
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Times `setup` `reps` times and returns the median wall and the last
/// result.
fn setup_median<R>(
    reps: usize,
    mut setup: impl FnMut() -> Result<R, String>,
) -> Result<(f64, R), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (s, r) = timed(&mut setup);
        walls.push(s);
        last = Some(r?);
    }
    Ok((median(&walls), last.ok_or("no set-up ran")?))
}

/// Builds every cell's simulation once and drops it: the set-up work a
/// runner repeats per cell, measured so that work moved into
/// construction shows in `setup_s`.
fn build_all(cells: &[FleetCell]) {
    for c in cells {
        black_box(c.spec.build());
    }
}

/// Emits the end-to-end metrics: `wall_s` is the median round, and
/// `ops_per_s` the throughput over every measured round (`ops` units of
/// work each).
fn finish(rep: &mut Report, setup_s: f64, walls: &[f64], ops: usize) -> f64 {
    let attempted = rep.attempted.max(1) as f64;
    let ops_per_s = (ops * walls.len()) as f64 / walls.iter().sum::<f64>();
    rep.info("rounds", walls.len());
    rep.e2e("setup_s", setup_s, "s");
    rep.e2e("wall_s", median(walls), "s");
    rep.e2e("ops_per_s", ops_per_s, "1/s");
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.e2e("ok_frac", 1.0 - rep.failed as f64 / attempted, "share");
    rep.extra("fail_frac", rep.failed as f64 / attempted, "share");
    ops_per_s
}

/// `region_busy`: the busy-hour region cells through `ms_fleet::run_fleet`.
pub fn region_busy(o: &Opts, work: &Path, rep: &mut Report) -> Result<(), String> {
    if o.trace {
        let cells = cells::region_cells(o.seed, o.tiny);
        let input = TraceInput {
            cells: &cells,
            runner: Runner::Memory,
            extra_rows: Vec::new(),
            mss: ms_workload::ScenarioConfig::default().mss,
        };
        return traced::trace(&input, work, rep);
    }
    let (setup_s, cells) = setup_median(SETUP_REPS, || {
        let cells = cells::region_cells(o.seed, o.tiny);
        build_all(&cells);
        Ok(cells)
    })?;
    let passes = rounds(o.seconds, || {
        run_cells(&cells, Runner::Memory, nproc(), work)
    });
    let mut walls = Vec::new();
    let mut digest = None;
    let mut events = 0;
    for (_, pass) in passes {
        let pass = pass?;
        rep.attempted += cells.len() as u64;
        rep.failed += pass.failed;
        let d = fnv64(pass.csv.as_bytes());
        events = cells::csv_events(&pass.csv);
        if *digest.get_or_insert(d) != d {
            rep.failed += cells.len() as u64;
            rep.problem(String::from("outcome digest changed between rounds"));
        }
        walls.push(pass.wall_s);
    }
    rep.info("outcome_digest", format!("{:016x}", digest.unwrap_or(0)));
    rep.info("events_per_round", events);
    let cells_per_s = finish(rep, setup_s, &walls, cells.len());
    rep.extra("cells_per_s", cells_per_s, "cells/s");
    Ok(())
}

/// `tree_incast`: the fat-tree incast grid through
/// `ms_fleet::run_fleet_to_lake`, a fresh lake per round.
pub fn tree_incast(o: &Opts, work: &Path, rep: &mut Report) -> Result<(), String> {
    let seeds = if o.tiny { 1 } else { 2 };
    if o.trace {
        let cells = cells::tree_grid(o.seed, seeds, o.tiny).cells();
        let input = TraceInput {
            cells: &cells,
            runner: Runner::Lake,
            extra_rows: Vec::new(),
            mss: 1500,
        };
        return traced::trace(&input, work, rep);
    }
    let (setup_s, cells) = setup_median(SETUP_REPS, || {
        let cells = cells::tree_grid(o.seed, seeds, o.tiny).cells();
        build_all(&cells);
        Ok(cells)
    })?;
    let dir = work.join("lake");
    let passes = rounds(o.seconds, || run_cells(&cells, Runner::Lake, nproc(), &dir));
    let mut walls = Vec::new();
    let mut first: Option<cells::RunnerPass> = None;
    for (_, pass) in passes {
        let pass = pass?;
        rep.attempted += cells.len() as u64;
        rep.failed += pass.failed;
        walls.push(pass.wall_s);
        match &first {
            Some(f) if f.csv != pass.csv => {
                rep.failed += cells.len() as u64;
                rep.problem(String::from("lake outcomes changed between rounds"));
            }
            Some(_) => {}
            None => first = Some(pass),
        }
    }
    let first = first.ok_or("no round ran")?;
    // Checks outside the timed rounds: the lake report equals the
    // in-memory CSV of a jobs=1 run, and every dropped byte has exactly
    // one forensic row.
    let reference = run_cells(&cells, Runner::Memory, 1, work)?;
    if reference.csv != first.csv {
        rep.failed += cells.len() as u64;
        rep.problem(String::from(
            "lake outcomes report differs from the jobs=1 in-memory CSV",
        ));
    }
    let lake = Lake::open(&dir).map_err(|e| e.to_string())?;
    let mismatches = cells::forensic_mismatches(&lake)?;
    rep.failed += mismatches.len() as u64;
    for m in mismatches {
        rep.problem(m);
    }
    let manifest = first.manifest.ok_or("lake runner returned no manifest")?;
    let rows: u64 = manifest.entries.iter().map(|e| e.rows).sum();
    let bytes: u64 = manifest.entries.iter().map(|e| e.bytes).sum();
    rep.info(
        "outcome_digest",
        format!("{:016x}", fnv64(first.csv.as_bytes())),
    );
    rep.info("events_per_round", cells::csv_events(&first.csv));
    let cells_per_s = finish(rep, setup_s, &walls, cells.len());
    rep.extra("cells_per_s", cells_per_s, "cells/s");
    rep.extra("lake_bytes_per_row", bytes as f64 / rows.max(1) as f64, "B");
    Ok(())
}

/// `lake_scan`'s corpus: a diurnal series of 64 hosts × one day of 1 ms
/// buckets (≈ 5.5 M rows), as the lake cell after the tree grid's.
fn corpus(seed: u64, cell: u64, tiny: bool) -> CellRows {
    let (hosts, buckets) = if tiny { (4, 2_000) } else { (64, 86_400) };
    CellRows {
        cell,
        label: format!("diurnal-s{seed}-h{hosts}-b{buckets}"),
        outcome: None,
        bursts: Vec::new(),
        series: ms_lake::synth_diurnal_series(seed, hosts, buckets, ms_dcsim::Ns::from_millis(1)),
        forensics: Vec::new(),
    }
}

/// `lake_scan`: every report and full table scan, over a lake of the
/// diurnal corpus plus a small forensics-bearing tree grid.
pub fn lake_scan(o: &Opts, work: &Path, rep: &mut Report) -> Result<(), String> {
    let cells = cells::tree_grid(o.seed, 1, o.tiny).cells();
    let corpus_cell = cells.len() as u64;
    if o.trace {
        let input = TraceInput {
            cells: &cells,
            runner: Runner::Lake,
            extra_rows: vec![corpus(o.seed, corpus_cell, o.tiny)],
            mss: 1500,
        };
        return traced::trace(&input, work, rep);
    }
    let dir = work.join("lake");
    let (setup_s, (manifest, corpus_in_bytes)) = setup_median(3, || {
        let _ = std::fs::remove_dir_all(&dir);
        let writer = LakeWriter::create(&dir, LakeConfig::default()).map_err(|e| e.to_string())?;
        let rows = corpus(o.seed, corpus_cell, o.tiny);
        let in_bytes: u64 = rows.series.iter().flat_map(|s| s.in_bytes.iter()).sum();
        let mut shard = writer
            .shard_writer_named("corpus")
            .map_err(|e| e.to_string())?;
        shard.append(&rows).map_err(|e| e.to_string())?;
        shard.finish().map_err(|e| e.to_string())?;
        drop(rows);
        let cfg = ms_fleet::FleetConfig {
            jobs: nproc(),
            ..ms_fleet::FleetConfig::default()
        };
        let manifest =
            ms_fleet::run_fleet_to_lake(&cells, &cfg, &writer).map_err(|e| e.to_string())?;
        Ok((manifest, in_bytes))
    })?;
    let lake = Lake::open(&dir).map_err(|e| e.to_string())?;
    let queries = cells::queries();
    let mut expected: Vec<Option<cells::QueryResult>> = vec![None; queries.len()];
    let mut latencies_ms = Vec::new();
    let (mut scan_s, mut scan_rows) = (0.0, 0u64);
    // A closed loop of nproc clients: in each round every client runs
    // every query once, concurrently with the others.
    let clients = nproc();
    let passes = rounds(o.seconds, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::with_capacity(queries.len());
                        for &q in &queries {
                            out.push(timed(|| cells::run_query(&lake, q)));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a query client panicked"))
                .collect::<Vec<_>>()
        })
    });
    let round_walls: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    for results in passes.into_iter().flat_map(|(_, per_client)| per_client) {
        for ((&q, (s, r)), want) in queries.iter().zip(results).zip(expected.iter_mut()) {
            rep.attempted += 1;
            latencies_ms.push(s * 1e3);
            let ok = match (&r, q) {
                (Ok(r), cells::Query::FullScan(t)) if r.rows != manifest.rows(t) => false,
                (Ok(r), _) => *want.get_or_insert(*r) == *r,
                (Err(_), _) => false,
            };
            if let (Ok(r), cells::Query::FullScan(_)) = (&r, q) {
                scan_s += s;
                scan_rows += r.rows;
            }
            if !ok {
                rep.failed += 1;
                rep.problem(format!(
                    "query {} returned a different or short result",
                    cells::query_name(q)
                ));
            }
        }
    }
    // Checks against in-memory truth, outside the timed rounds.
    let reference = run_cells(&cells, Runner::Memory, 1, work)?;
    if ms_lake::outcomes_csv(&lake).map_err(|e| e.to_string())? != reference.csv {
        rep.failed += 1;
        rep.problem(String::from(
            "lake outcomes report differs from the jobs=1 in-memory CSV",
        ));
    }
    let cols = [
        TableKind::Series.column("cell").ok_or("no cell column")?,
        TableKind::Series
            .column("in_bytes")
            .ok_or("no in_bytes column")?,
    ];
    let pushdown = vec![ms_lake::ColumnRange {
        col: cols[0],
        min: corpus_cell,
        max: corpus_cell,
    }];
    let mut scan = ms_lake::TableScan::new(&lake, TableKind::Series, &cols, pushdown)
        .map_err(|e| e.to_string())?;
    let mut scanned_in_bytes = 0u64;
    ms_lake::for_each_row(&mut scan, |b, r| {
        if b.value(0, r) == corpus_cell {
            scanned_in_bytes += b.value(1, r);
        }
    })
    .map_err(|e| e.to_string())?;
    if scanned_in_bytes != corpus_in_bytes {
        rep.failed += 1;
        rep.problem(String::from(
            "corpus in_bytes read back differ from those written",
        ));
    }
    let rows: u64 = manifest.entries.iter().map(|e| e.rows).sum();
    let bytes: u64 = manifest.entries.iter().map(|e| e.bytes).sum();
    rep.info("queries", latencies_ms.len());
    rep.info("lake_rows", rows);
    rep.info(
        "query_digest",
        format!("{:016x}", fnv64(format!("{expected:?}").as_bytes())),
    );
    finish(rep, setup_s, &round_walls, clients * queries.len());
    rep.extra("lake_bytes_per_row", bytes as f64 / rows.max(1) as f64, "B");
    rep.extra("scan_rows_per_s", scan_rows as f64 / scan_s, "rows/s");
    rep.extra("query_ms_p50", percentile(&latencies_ms, 50.0), "ms");
    rep.extra("query_ms_p99", percentile(&latencies_ms, 99.0), "ms");
    Ok(())
}
