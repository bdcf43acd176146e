//! The simulated cells of the sim workloads, the repository's runners
//! that execute them, and the lake queries.

use crate::measure::{fnv64, timed};
use ms_dcsim::PolicyKind;
use ms_fleet::{
    run_fleet, run_fleet_to_lake, FleetCell, FleetConfig, FleetGrid, PlacementKind, TopoPoint,
};
use ms_lake::{Lake, LakeConfig, LakeManifest, LakeWriter, TableKind, TableScan};
use ms_workload::RegionKind;
use std::path::Path;

/// `region_busy`'s cells: hour 7 of RegA (10 racks, the last 2
/// ML-dense) and RegB (5 racks), 24 servers per rack, default
/// `ScenarioConfig`, realization `run_idx = seed`. Heaviest cells come
/// first so the work-stealing runner does not end on a 4 s straggler.
pub fn region_cells(seed: u64, tiny: bool) -> Vec<FleetCell> {
    let mut cfg = ms_workload::ScenarioConfig::default();
    let (rega, regb) = if tiny {
        cfg.buckets = 40;
        cfg.warmup = ms_dcsim::Ns::from_millis(20);
        (5, 1)
    } else {
        (10, 5)
    };
    // The placement `repro` sweeps (`SweepConfig::default()`'s seed); the
    // workload seed picks the run realization instead (see README).
    let placement = ms_bench::SweepConfig::default().seed;
    let a = ms_workload::placement::build_region(RegionKind::RegA, rega, 24, placement);
    let b = ms_workload::placement::build_region(RegionKind::RegB, regb, 24, placement);
    let cell =
        |region: &ms_workload::RegionSpec, tag: &str, rack: &ms_workload::RackSpec| FleetCell {
            label: format!("{tag}-r{:02}-h7-run{seed}", rack.rack_id),
            spec: ms_workload::rack_spec_for(rack, &region.diurnal, 7, seed, &cfg),
        };
    let ml = |r: &&ms_workload::RackSpec| r.class == ms_workload::RackClass::MlDense;
    let mut cells: Vec<FleetCell> = a
        .racks
        .iter()
        .filter(ml)
        .map(|r| cell(&a, "rega", r))
        .collect();
    cells.extend(b.racks.iter().map(|r| cell(&b, "regb", r)));
    cells.extend(
        a.racks
            .iter()
            .filter(|r| !ml(r))
            .map(|r| cell(&a, "rega", r)),
    );
    cells
}

/// The fat-tree incast grid: k=4 fat tree, single × spread placement ×
/// dt/fb/delay × 50 % / 100 % cross-pod density, forensics on, 1500 B
/// MSS (`ScenarioBuilder`'s default), over `seeds` consecutive grid seeds.
pub fn tree_grid(seed: u64, seeds: u64, tiny: bool) -> FleetGrid {
    FleetGrid {
        seeds: (0..seeds).map(|i| seed * seeds + i).collect(),
        alphas: vec![1.0],
        placements: vec![PlacementKind::SingleVictim, PlacementKind::Spread],
        policies: vec![
            PolicyKind::DtAlpha,
            PolicyKind::FlexibleBounds,
            PolicyKind::DelayDriven,
        ],
        topos: vec![
            TopoPoint::FatTree {
                k: 4,
                density_pct: 50,
            },
            TopoPoint::FatTree {
                k: 4,
                density_pct: 100,
            },
        ],
        forensics: true,
        buckets: if tiny { 60 } else { 200 },
        connections: if tiny { 16 } else { 80 },
        total_bytes: if tiny { 1_500_000 } else { 12_000_000 },
        ..FleetGrid::default()
    }
}

/// Which of the repository's runners executes the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `ms_fleet::run_fleet`: outcomes held in memory.
    Memory,
    /// `ms_fleet::run_fleet_to_lake`: every row streamed to a fresh lake.
    Lake,
}

/// One runner pass: its wall time, the grid-ordered outcome CSV, and
/// (lake runner) the manifest.
pub struct RunnerPass {
    pub wall_s: f64,
    pub csv: String,
    pub failed: u64,
    pub manifest: Option<LakeManifest>,
}

/// Runs `cells` through `runner` with `jobs` workers. The lake runner
/// writes a fresh lake at `dir`; the timed part is what a user of the
/// runner waits for (sweep plus compaction), not the report read after.
pub fn run_cells(
    cells: &[FleetCell],
    runner: Runner,
    jobs: usize,
    dir: &Path,
) -> Result<RunnerPass, String> {
    let cfg = FleetConfig {
        jobs,
        ..FleetConfig::default()
    };
    match runner {
        Runner::Memory => {
            let (wall_s, report) = timed(|| run_fleet(cells, &cfg));
            Ok(RunnerPass {
                wall_s,
                csv: report.to_csv(),
                failed: (report.results.len() - report.ok_count()) as u64,
                manifest: None,
            })
        }
        Runner::Lake => {
            let _ = std::fs::remove_dir_all(dir);
            let (wall_s, manifest) = timed(|| {
                let writer = LakeWriter::create(dir, LakeConfig::default())?;
                run_fleet_to_lake(cells, &cfg, &writer)
            });
            let manifest = manifest.map_err(|e| format!("lake sweep: {e}"))?;
            let lake = Lake::open(dir).map_err(|e| e.to_string())?;
            let csv = ms_lake::outcomes_csv(&lake).map_err(|e| e.to_string())?;
            let failed = csv.lines().filter(|l| l.contains(",failed,")).count() as u64;
            Ok(RunnerPass {
                wall_s,
                csv,
                failed,
                manifest: Some(manifest),
            })
        }
    }
}

/// Total simulated events in a grid-ordered outcome CSV.
pub fn csv_events(csv: &str) -> u64 {
    let col = csv
        .lines()
        .next()
        .and_then(|h| h.split(',').position(|c| c == "events"))
        .unwrap_or(usize::MAX);
    csv.lines()
        .skip(1)
        .filter_map(|l| l.split(',').nth(col)?.parse::<u64>().ok())
        .sum()
}

/// Cells whose classified forensic bytes differ from their switch
/// discards: every dropped byte must land in exactly one forensic row
/// (valid while no cell overflows the forensic store).
pub fn forensic_mismatches(lake: &Lake) -> Result<Vec<String>, String> {
    let col = |t: TableKind, c: &str| t.column(c).ok_or_else(|| format!("no column {c}"));
    let mut discards: Vec<(u64, u64)> = Vec::new();
    let oc = [
        col(TableKind::Outcomes, "cell")?,
        col(TableKind::Outcomes, "switch_discard_bytes")?,
    ];
    let mut scan =
        TableScan::new(lake, TableKind::Outcomes, &oc, Vec::new()).map_err(|e| e.to_string())?;
    ms_lake::for_each_row(&mut scan, |b, r| {
        discards.push((b.value(0, r), b.value(1, r)))
    })
    .map_err(|e| e.to_string())?;
    let mut forensic: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let fc = [
        col(TableKind::Forensics, "cell")?,
        col(TableKind::Forensics, "size")?,
    ];
    let mut scan =
        TableScan::new(lake, TableKind::Forensics, &fc, Vec::new()).map_err(|e| e.to_string())?;
    ms_lake::for_each_row(&mut scan, |b, r| {
        *forensic.entry(b.value(0, r)).or_default() += b.value(1, r)
    })
    .map_err(|e| e.to_string())?;
    Ok(discards
        .into_iter()
        .filter(|&(cell, bytes)| forensic.get(&cell).copied().unwrap_or(0) != bytes)
        .map(|(cell, bytes)| format!("cell {cell}: forensic bytes != switch discards {bytes}"))
        .collect())
}

/// An out-of-core report, rendered as text.
pub type ReportFn = fn(&Lake) -> Result<String, ms_lake::LakeError>;

/// The lake queries: every out-of-core report and a full scan of every
/// table.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    Report(&'static str, ReportFn),
    FullScan(TableKind),
}

/// Every query, in the order one round runs them; reports by their
/// `lake query --report` name.
pub fn queries() -> Vec<Query> {
    let reports: [(&str, ReportFn); 6] = [
        ("aggregate", |l| {
            ms_lake::lake_sweep_aggregate(l).map(|a| a.to_csv())
        }),
        ("outcomes", ms_lake::outcomes_csv),
        ("forensics", ms_lake::forensics_csv),
        ("attribution", ms_lake::attribution_csv),
        ("tiers", ms_lake::tiers_csv),
        ("policy_compare", ms_lake::policy_compare_csv),
    ];
    let tables = [
        TableKind::Outcomes,
        TableKind::Bursts,
        TableKind::Series,
        TableKind::Forensics,
    ];
    let mut q: Vec<Query> = reports
        .into_iter()
        .map(|(name, f)| Query::Report(name, f))
        .collect();
    q.extend(tables.into_iter().map(Query::FullScan));
    q
}

/// A query's result digest plus, for scans, rows and chunks decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    pub digest: u64,
    pub rows: u64,
    pub chunks: u64,
}

/// Runs one query; the digest covers every byte or value it returned.
pub fn run_query(lake: &Lake, q: Query) -> Result<QueryResult, String> {
    match q {
        Query::Report(_, report) => {
            let text = report(lake).map_err(|e| e.to_string())?;
            Ok(QueryResult {
                digest: fnv64(text.as_bytes()),
                rows: 0,
                chunks: 0,
            })
        }
        Query::FullScan(table) => {
            let mut scan = TableScan::full(lake, table).map_err(|e| e.to_string())?;
            let mut sum = 0u64;
            ms_lake::for_each_row(&mut scan, |b, r| {
                for c in 0..b.cols.len() {
                    sum = sum.wrapping_mul(31).wrapping_add(b.value(c, r));
                }
            })
            .map_err(|e| e.to_string())?;
            let st = scan.stats();
            Ok(QueryResult {
                digest: sum,
                rows: st.rows_scanned,
                chunks: st.chunks_read,
            })
        }
    }
}

/// Display name of a query.
pub fn query_name(q: Query) -> String {
    match q {
        Query::Report(name, _) => String::from(name),
        Query::FullScan(t) => format!("scan_{}", t.name()),
    }
}
