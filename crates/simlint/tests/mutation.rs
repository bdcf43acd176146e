//! Mutation coverage for the PDES-readiness passes: plant the exact bug
//! each pass exists to catch into otherwise-clean source, and assert the
//! finding surfaces with the right rule and anchor. The monotonicity
//! mutation is planted into a copy of the *real* `EventQueue` so the
//! check exercises the production event-engine source, not a toy.

use simlint::{analyze, Config, Diagnostic};
use std::path::{Path, PathBuf};

fn engine_src() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../dcsim/src/engine.rs");
    std::fs::read_to_string(path).expect("the real event engine is part of the workspace")
}

fn scratch_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale scratch tree");
    }
    std::fs::create_dir_all(&root).expect("create scratch tree");
    for (rel, content) in files {
        std::fs::write(root.join(rel), content).expect("write scratch file");
    }
    root
}

fn lint(root: &Path, cfg: &Config) -> Vec<Diagnostic> {
    analyze(root, cfg).expect("scratch scan must succeed").diags
}

const REGRESSION: &str = "
impl<E> EventQueue<E> {
    pub fn regress(&mut self, delta: Ns, event: E) {
        let at = Ns(self.now.0 - delta.0);
        self.schedule(at, event);
    }
}
";

/// The same bug planted into the timer slots' entry point: a push at a
/// reserved FIFO ticket whose time is `now - delta`, written inline.
const RESERVED_REGRESSION: &str = "
impl<E> EventQueue<E> {
    pub fn regress_reserved(&mut self, delta: Ns, event: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(Ns(self.now.0 - delta.0), seq, event);
    }
}
";

/// Lints the real engine before and after appending `planted` (a single
/// `impl` block whose sink call is its fourth line), and asserts that
/// exactly the planted call in `func` is flagged, anchored at the sink.
fn assert_planted_regression_caught(name: &str, planted: &str, func: &str) {
    let cfg = Config {
        crates: vec![".".to_string()],
        monotonic_sinks: vec![
            "EventQueue::schedule".to_string(),
            "EventQueue::schedule_reserved".to_string(),
        ],
        ..Config::default()
    };

    let pristine = scratch_tree(&format!("{name}_pristine"), &[("engine.rs", &engine_src())]);
    let before: Vec<Diagnostic> = lint(&pristine, &cfg)
        .into_iter()
        .filter(|d| d.rule == "non-monotonic-schedule")
        .collect();
    assert!(
        before.is_empty(),
        "the unmutated engine must be monotonicity-clean: {before:?}"
    );

    let mutated_src = format!("{}{planted}", engine_src());
    let mutated = scratch_tree(&format!("{name}_planted"), &[("engine.rs", &mutated_src)]);
    let after: Vec<Diagnostic> = lint(&mutated, &cfg)
        .into_iter()
        .filter(|d| d.rule == "non-monotonic-schedule")
        .collect();
    assert_eq!(after.len(), 1, "exactly the planted regression: {after:?}");
    assert!(
        after[0].message.contains(&format!("`EventQueue::{func}`"))
            && after[0].message.contains("subtraction"),
        "{}",
        after[0].message
    );
    // Anchored at the planted `self.<sink>(...)` call, five lines past
    // the pristine file's end (blank, impl, fn, let, call).
    let planted_line = engine_src().lines().count() as u32 + 5;
    assert_eq!(
        (after[0].line, after[0].col),
        (planted_line, 14),
        "{:?}",
        after[0]
    );
}

#[test]
fn planted_now_minus_delta_in_the_real_event_queue_is_caught() {
    assert_planted_regression_caught("mut_mono", REGRESSION, "regress");
}

#[test]
fn planted_now_minus_delta_at_a_reserved_ticket_is_caught() {
    assert_planted_regression_caught("mut_mono_reserved", RESERVED_REGRESSION, "regress_reserved");
}

fn lp_source(table_ty: &str, second_root_touches: &str) -> String {
    format!(
        "pub struct Sim {{
    table: {table_ty},
    count: u64,
}}

impl Sim {{
    pub fn step_a(&mut self) {{
        self.touch();
    }}

    pub fn step_b(&mut self) {{
        {second_root_touches}
    }}

    fn touch(&mut self) {{
        self.count += 1;
    }}
}}
"
    )
}

#[test]
fn planted_shared_handle_and_cross_lp_access_are_caught() {
    let cfg = Config {
        crates: vec![".".to_string()],
        lp_state: Some("Sim".to_string()),
        lp_per_lp: vec!["table".to_string(), "count".to_string()],
        lp_roots: vec!["Sim::step_a".to_string(), "Sim::step_b".to_string()],
        ..Config::default()
    };

    // Pristine: owned per-LP data, each root touching disjoint state.
    let pristine = scratch_tree(
        "mut_lp_pristine",
        &[("sim.rs", &lp_source("u64", "let _ = self;"))],
    );
    let before: Vec<Diagnostic> = lint(&pristine, &cfg)
        .into_iter()
        .filter(|d| d.rule == "lp-escape")
        .collect();
    assert!(
        before.is_empty(),
        "clean partition must not flag: {before:?}"
    );

    // Mutated: `table` becomes a shareable handle, and the second
    // declared LP root reaches `count` through the same accessor.
    let mutated = scratch_tree(
        "mut_lp_planted",
        &[("sim.rs", &lp_source("Arc<Mutex<u64>>", "self.touch();"))],
    );
    let after: Vec<Diagnostic> = lint(&mutated, &cfg)
        .into_iter()
        .filter(|d| d.rule == "lp-escape")
        .collect();
    assert_eq!(after.len(), 2, "both planted escapes: {after:?}");
    let shape = after
        .iter()
        .find(|d| d.message.contains("`table`"))
        .expect("the Arc<Mutex<_>> field must flag by shape");
    assert!(shape.message.contains("`Arc`"), "{}", shape.message);
    let reach = after
        .iter()
        .find(|d| d.message.contains("`count`"))
        .expect("the cross-LP field must flag by reach");
    assert!(
        reach.message.contains("`Sim::step_a`") && reach.message.contains("`Sim::step_b`"),
        "{}",
        reach.message
    );
}
