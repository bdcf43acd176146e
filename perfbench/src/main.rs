//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <region_busy|tree_incast|lake_scan> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; traced
//! runs (`--trace 1`) the per-layer ones. Every metric is printed by
//! name with its unit; the last stdout line is the JSON result. See
//! `perfbench/README.md` for the workloads and metrics.

mod cells;
mod json;
mod measure;
mod micro;
mod traced;
mod workloads;

use measure::{Report, Section};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <region_busy|tree_incast|lake_scan> \
                     --seed N --seconds S --trace <0|1> [--tiny]";

struct Args {
    workload: String,
    opts: workloads::Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                });
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(String::from("--seconds must be in (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: workloads::Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        },
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "region_busy" => workloads::region_busy,
        "tree_incast" => workloads::tree_incast,
        "lake_scan" => workloads::lake_scan,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let mut rep = Report::default();
    if let Err(e) = std::fs::create_dir_all(&work.0)
        .map_err(|e| e.to_string())
        .and_then(|()| run(&args.opts, &work.0, &mut rep))
    {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    drop(work);
    provenance(&mut rep);

    let o = &args.opts;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    for m in &rep.metrics {
        let tag = match m.section {
            Section::EndToEnd => "end_to_end",
            Section::PerLayer => "per_layer",
            Section::Extra => "printed",
        };
        println!(
            "  {:<40} {:>18} {:<8} [{tag}]",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for (k, v) in &rep.info {
        println!("  {k:<40} {v}");
    }
    for p in &rep.problems {
        println!("  CHECK FAILED: {p}");
    }
    let section = if o.trace {
        Section::PerLayer
    } else {
        Section::EndToEnd
    };
    println!("{}", rep.result_line(section));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Host and build labels for the wall times: cores, CPU model, the
/// compiler, the source revision and the build profile.
fn provenance(rep: &mut Report) {
    rep.info("host_cores", measure::nproc());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| String::from("unknown"));
    rep.info("cpu", cpu);
    rep.info(
        "rustc",
        command_line("rustc", &["-V"]).unwrap_or_else(|| String::from("unknown")),
    );
    rep.info(
        "commit",
        command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| String::from("none (not a git checkout)")),
    );
    rep.info(
        "source_digest",
        format!("{:016x}", source_digest(Path::new("crates"))),
    );
    rep.info(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
}

/// The first line a command prints, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// FNV-1a over every file under `dir` (sorted paths, then contents):
/// identifies the measured source when there is no commit to name.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    measure::fnv64(&bytes)
}
