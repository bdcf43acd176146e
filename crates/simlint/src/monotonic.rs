//! Time-monotonicity: every timestamp handed to the event queue must be
//! provably "now or later".
//!
//! The PDES refactor (ROADMAP item 2) turns the sequential `EventQueue`
//! into per-rack logical processes synchronized by conservative
//! lookahead; in that world a timestamp in the past is not a clamped
//! curiosity but a *causality violation* — an LP that already advanced
//! past `t` can never apply an event at `t`. This pass polices the
//! property statically, before the engine is parallelized, at every
//! call site of the `[monotonic] sinks` functions (`EventQueue::
//! schedule`). It flags, with positive evidence only:
//!
//! * **subtraction** anywhere in the timestamp expression or the `let`
//!   chain feeding it (`now - delta` lands in the past);
//! * **raw literal** timestamps (absolute times do not compose — a
//!   second caller with a different epoch reorders the timeline);
//! * **float round-trips** (`(x as f64 * r) as u64` can round below
//!   `now`, and rounds differently per platform — the same class of bug
//!   [`crate::floatflow`] polices on scheduling *roots*, caught here on
//!   the *values*).
//!
//! Unknown provenance stays silent: a timestamp that is just a
//! parameter or a call result degrades to no finding, never to noise —
//! the same philosophy as [`crate::unitflow`].
//!
//! Declared `[monotonic] boundaries` entries ("<Type::fn> <Event>
//! <lookahead-ident>") additionally enforce the *lookahead floor*: in
//! that function, every sink call scheduling `<Event>` must derive its
//! timestamp from `<lookahead-ident>` (directly or through its `let`
//! chain). Those are the sites that will become cross-LP channel sends;
//! conservative synchronization is only deadlock-free if every cross-LP
//! event is at least one link delay in the future.

use crate::body::{matching, split_args, Let, Pass, Walker};
use crate::config::{Boundary, Config};
use crate::diag::Diagnostic;
use crate::floatflow;
use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Scan-size counters for the bench artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicStats {
    /// Sink call sites whose timestamp argument was checked.
    pub sites: usize,
}

const HINT: &str = "derive scheduled times as `now + positive delta` in integer Ns \
                    (checked/saturating ops belong on the delta, never the absolute time); \
                    if the shape is provably safe, add `// simlint: \
                    allow(non-monotonic-schedule): why`";

const FLOOR_HINT: &str = "cross-LP events must be at least one link delay in the future for \
                          conservative PDES synchronization — route the timestamp through the \
                          declared lookahead term";

/// Provenance of one `let` binding (or one argument expression):
/// positive evidence plus the transitive ident closure of its RHS.
#[derive(Debug, Default, Clone)]
struct Prov {
    /// First subtraction evidence: what the construct was.
    sub: Option<String>,
    /// First float evidence.
    float: Option<String>,
    /// The RHS is a bare literal (or `Ns(<literal>)`).
    lit: bool,
    /// Idents mentioned, including those of bindings folded in.
    mentions: BTreeSet<String>,
}

const SUB_METHODS: [&str; 3] = ["saturating_sub", "checked_sub", "wrapping_sub"];

/// Analyzes a token slice, folding in the provenance of any mentioned
/// binding. One forward pass over bindings-in-source-order is exact for
/// straight-line `let` chains and conservative elsewhere.
fn analyze(slice: &[Tok], env: &BTreeMap<String, Prov>) -> Prov {
    let mut p = Prov::default();
    for (i, t) in slice.iter().enumerate() {
        match t.kind {
            TokKind::Punct if t.text == "-" => {
                // `->` (closure/fn arrows) is not a subtraction.
                if !slice.get(i + 1).is_some_and(|n| n.is_punct('>')) && p.sub.is_none() {
                    p.sub = Some("`-`".to_string());
                }
            }
            TokKind::Ident => {
                if SUB_METHODS.contains(&t.text.as_str()) && p.sub.is_none() {
                    p.sub = Some(format!("`.{}()`", t.text));
                }
                p.mentions.insert(t.text.clone());
                if let Some(b) = env.get(&t.text) {
                    if p.sub.is_none() {
                        p.sub.clone_from(&b.sub);
                    }
                    if p.float.is_none() {
                        p.float.clone_from(&b.float);
                    }
                    p.mentions.extend(b.mentions.iter().cloned());
                }
            }
            _ => {}
        }
    }
    if p.float.is_none() {
        p.float = floatflow::first_float_in_slice(slice).map(|(_, _, what)| what);
    }
    p.lit = is_literal_expr(slice);
    p
}

/// Whether a slice is a bare literal timestamp: one or more literal
/// tokens (`5`, `1_000`) or a newtype-wrapped one (`Ns(5)`).
fn is_literal_expr(slice: &[Tok]) -> bool {
    match slice {
        [] => false,
        [only] => only.kind == TokKind::Literal,
        [head, open, lit, close] => {
            head.kind == TokKind::Ident
                && open.is_punct('(')
                && lit.kind == TokKind::Literal
                && close.is_punct(')')
        }
        _ => false,
    }
}

/// The monotonicity pass's side of the shared [`Walker`]: one
/// function's sink and boundary context, plus what it reports.
struct Sites<'a> {
    file: &'a str,
    qualified: String,
    sink_names: &'a BTreeSet<String>,
    /// The `[monotonic] boundaries` entries declared for this function,
    /// with their config index.
    boundaries: Vec<(usize, &'a Boundary)>,
    boundary_hits: &'a mut BTreeMap<usize, usize>,
    out: &'a mut Vec<Diagnostic>,
    checked: usize,
}

impl Pass for Sites<'_> {
    type Val = Prov;

    /// A binding's provenance is its initializer's; the walk then
    /// continues *inside* the initializer, so sinks there are checked.
    fn bind(
        w: &mut Walker<'_, Self>,
        l: &Let,
        rhs: (usize, usize),
        _end: usize,
    ) -> (Option<Prov>, usize) {
        let prov = l.single().map(|_| analyze(&w.toks[rhs.0..rhs.1], &w.env));
        (prov, rhs.0)
    }

    /// A sink call — `.name(` or `::name(`, never `fn name(` — has its
    /// timestamp argument checked; the walk then descends into the
    /// argument list, so a sink nested in another's argument is checked
    /// too.
    fn step(w: &mut Walker<'_, Self>, i: usize, end: usize) -> usize {
        let toks = w.toks;
        let t = &toks[i];
        let is_sink = t.kind == TokKind::Ident
            && w.pass.sink_names.contains(&t.text)
            && w.is_punct(i + 1, '(')
            && i > 0
            && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if !is_sink {
            return i + 1;
        }
        let open = i + 1;
        let close = matching(toks, open).filter(|&c| c < end).unwrap_or(end);
        let (arg_start, arg_end) = split_args(toks, open, close)[0];
        let arg = &toks[arg_start..arg_end];
        let rest = &toks[(arg_end + 1).min(close)..close];
        w.pass.check(t, arg, rest, &w.env);
        open + 1
    }
}

impl Sites<'_> {
    /// Checks one sink call's timestamp argument `arg` (the remaining
    /// arguments are `rest`) against the bindings in `env`.
    fn check(&mut self, t: &Tok, arg: &[Tok], rest: &[Tok], env: &BTreeMap<String, Prov>) {
        let qualified = &self.qualified;
        self.checked += 1;
        let prov = analyze(arg, env);
        let arg_text = || {
            arg.iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let bare_lit = prov.lit
            || (arg.len() == 1
                && arg[0].kind == TokKind::Ident
                && env.get(&arg[0].text).is_some_and(|p| p.lit));
        let message = if bare_lit {
            Some(format!(
                "`{}` in `{qualified}` is called with a raw literal timestamp `{}` — \
                 absolute times do not compose with `now`",
                t.text,
                arg_text()
            ))
        } else if let Some(what) = &prov.sub {
            Some(format!(
                "timestamp passed to `{}` in `{qualified}` involves subtraction ({what}) — \
                 the result is not provably `now + positive delta`",
                t.text
            ))
        } else {
            prov.float.as_ref().map(|what| {
                format!(
                    "timestamp passed to `{}` in `{qualified}` is derived through \
                     floating-point math ({what}) — rounding can land it in the past, \
                     differently per platform",
                    t.text
                )
            })
        };
        if let Some(message) = message {
            self.out.push(Diagnostic::new(
                self.file,
                t.line,
                t.col,
                "non-monotonic-schedule",
                message,
                HINT,
            ));
        }
        // Lookahead floor at declared LP boundaries.
        for (bi, b) in &self.boundaries {
            if !rest.iter().any(|t| t.is_ident(&b.event)) {
                continue;
            }
            *self.boundary_hits.entry(*bi).or_insert(0) += 1;
            let applied = arg.iter().any(|t| t.is_ident(&b.lookahead))
                || prov.mentions.contains(&b.lookahead);
            if !applied {
                self.out.push(Diagnostic::new(
                    self.file,
                    t.line,
                    t.col,
                    "lookahead-floor",
                    format!(
                        "LP-boundary schedule of `{}` in `{qualified}` does not apply \
                         the declared lookahead floor `{}`",
                        b.event, b.lookahead
                    ),
                    FLOOR_HINT,
                ));
            }
        }
    }
}

/// Runs the pass: checks every sink call site in every non-test,
/// non-relaxed function, plus the configured guard entries.
pub fn monotonic_pass(
    graph: &CallGraph,
    tokens: &BTreeMap<String, Vec<Tok>>,
    cfg: &Config,
) -> (Vec<Diagnostic>, MonotonicStats) {
    let mut out = Vec::new();
    let mut stats = MonotonicStats::default();
    if cfg.monotonic_sinks.is_empty() {
        return (out, stats);
    }
    // Sinks are matched by *method name* at call sites (`self.q.schedule`
    // does not resolve through the graph — the receiver type is opaque
    // at the token level); the qualified spelling is the guard.
    let mut sink_names = BTreeSet::new();
    for sink in &cfg.monotonic_sinks {
        sink_names.insert(sink.rsplit("::").next().unwrap_or(sink).to_string());
        if graph.find_qualified(sink).is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "pdes-config-missing",
                format!("configured monotonic sink `{sink}` was not found in any scanned file"),
                "a rename silently disables timestamp checking — update [monotonic] sinks",
            ));
        }
    }
    let mut boundary_hits: BTreeMap<usize, usize> = BTreeMap::new(); // boundary idx -> sites
    for (bi, b) in cfg.boundaries.iter().enumerate() {
        boundary_hits.insert(bi, 0);
        if graph.find_qualified(&b.func).is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                b.line,
                1,
                "pdes-config-missing",
                format!(
                    "configured LP boundary `{}` was not found in any scanned file",
                    b.func
                ),
                "a rename silently drops its lookahead-floor check — update [monotonic] \
                 boundaries",
            ));
        }
    }

    for node in &graph.nodes {
        if cfg.is_relaxed(&node.crate_dir) || node.def.in_cfg_test || node.file.contains("tests/") {
            continue;
        }
        let Some(toks) = tokens.get(&node.file) else {
            continue;
        };
        let (bs, be) = node.def.body_range;
        let qualified = node.qualified();
        let boundaries = cfg
            .boundaries
            .iter()
            .enumerate()
            .filter(|(_, b)| b.func == qualified)
            .collect();
        let mut w = Walker::new(
            toks,
            Sites {
                file: &node.file,
                qualified,
                sink_names: &sink_names,
                boundaries,
                boundary_hits: &mut boundary_hits,
                out: &mut out,
                checked: 0,
            },
        );
        w.walk(bs, be.min(toks.len()));
        stats.sites += w.pass.checked;
    }

    for (bi, b) in cfg.boundaries.iter().enumerate() {
        if boundary_hits.get(&bi).copied().unwrap_or(0) == 0
            && !graph.find_qualified(&b.func).is_empty()
        {
            out.push(Diagnostic::new(
                "simlint.toml",
                b.line,
                1,
                "pdes-config-missing",
                format!(
                    "declared LP boundary `{}` / event `{}` matched no schedule site",
                    b.func, b.event
                ),
                "the event was renamed or the schedule moved — update [monotonic] boundaries \
                 so the lookahead floor keeps its coverage",
            ));
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run_cfg(src: &str, cfg: &Config) -> (Vec<Diagnostic>, MonotonicStats) {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        monotonic_pass(&graph, &tokens, cfg)
    }

    fn cfg() -> Config {
        Config {
            monotonic_sinks: vec!["EventQueue::schedule".to_string()],
            ..Config::default()
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        run_cfg(src, &cfg()).0
    }

    const QUEUE: &str = "impl EventQueue { pub fn schedule(&mut self, at: u64, ev: u32) {} }\n";

    #[test]
    fn now_plus_delta_is_clean() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ self.q.schedule(now + self.gap, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn subtraction_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ self.q.schedule(now - 5, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "non-monotonic-schedule");
        assert!(d[0].message.contains("subtraction"), "{}", d[0].message);
    }

    #[test]
    fn subtraction_through_let_chain_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let slack = now.saturating_sub(self.lead); let at = slack + 1; \
             self.q.schedule(at, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("saturating_sub"), "{}", d[0].message);
    }

    #[test]
    fn raw_literal_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self) {{ self.q.schedule(1_000, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("raw literal"), "{}", d[0].message);
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self) {{ self.q.schedule(Ns(99), 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn float_round_trip_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let next = (self.rate * 2.5) as u64; self.q.schedule(now + next, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("floating"), "{}", d[0].message);
    }

    #[test]
    fn unknown_provenance_stays_silent() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, at: u64) {{ \
             let due = at.max(self.q.now()); self.q.schedule(due, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn arrow_in_closure_is_not_subtraction() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let at = self.xs.iter().map(|x| -> u64 {{ x.t }}).fold(now, u64::max); \
             self.q.schedule(at, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sink_sites_are_counted() {
        let (_, stats) = run_cfg(
            &format!(
                "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
                 self.q.schedule(now, 1); self.q.schedule(now + 1, 2); }} }}"
            ),
            &cfg(),
        );
        assert_eq!(stats.sites, 2);
    }

    #[test]
    fn test_code_is_skipped() {
        let d = run(&format!(
            "{QUEUE}#[cfg(test)] mod t {{ fn f(q: &mut Q) {{ q.schedule(100, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_sink_is_guarded() {
        let d = run("fn other() {}");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pdes-config-missing");
    }

    #[test]
    fn lookahead_floor_enforced_at_boundary() {
        let mut c = cfg();
        c.boundaries.push(Boundary {
            func: "S::forward".to_string(),
            event: "TorArrive".to_string(),
            lookahead: "fabric_delay".to_string(),
            line: 9,
        });
        let ok = format!(
            "{QUEUE}impl S {{ fn forward(&mut self, now: u64) {{ \
             self.q.schedule(now + self.fabric_delay, TorArrive); }} }}"
        );
        assert!(run_cfg(&ok, &c).0.is_empty());
        let bad = format!(
            "{QUEUE}impl S {{ fn forward(&mut self, now: u64) {{ \
             self.q.schedule(now + 1, TorArrive); self.q.schedule(now, Other); }} }}"
        );
        let d = run_cfg(&bad, &c).0;
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lookahead-floor");
        assert!(d[0].message.contains("fabric_delay"));
    }

    #[test]
    fn lookahead_through_let_chain_is_accepted() {
        let mut c = cfg();
        c.boundaries.push(Boundary {
            func: "S::forward".to_string(),
            event: "TorArrive".to_string(),
            lookahead: "fabric_delay".to_string(),
            line: 9,
        });
        let src = format!(
            "{QUEUE}impl S {{ fn forward(&mut self, now: u64) {{ \
             let delay = self.cfg.fabric_delay; self.q.schedule(now + delay, TorArrive); }} }}"
        );
        assert!(run_cfg(&src, &c).0.is_empty());
    }

    #[test]
    fn unmatched_boundary_is_guarded() {
        let mut c = cfg();
        c.boundaries.push(Boundary {
            func: "S::forward".to_string(),
            event: "Gone".to_string(),
            lookahead: "fabric_delay".to_string(),
            line: 9,
        });
        let src = format!(
            "{QUEUE}impl S {{ fn forward(&mut self, now: u64) {{ \
             self.q.schedule(now + 1, Other); }} }}"
        );
        let d = run_cfg(&src, &c).0;
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pdes-config-missing");
        assert!(d[0].message.contains("matched no schedule site"));
    }
}
