//! Float-determinism: no `f32`/`f64` arithmetic reachable from
//! scheduling paths.
//!
//! The simulator's reproducibility claim rests on every scheduling
//! decision being computed in integer nanoseconds: float rounding can
//! differ across platforms, compiler versions, and optimization levels
//! (x87 vs SSE, FMA contraction, libm variance), so a single `f64` on
//! the path that decides *when* an event fires silently forks the
//! timeline between machines. Reporting code is free to use floats —
//! `Ns::as_secs_f64` exists precisely for human-facing output — but the
//! functions named under `[float] roots` (event insertion/extraction,
//! trace emission, link serialization) and everything they transitively
//! call must stay integral.
//!
//! Mechanically this is a fourth propagated fact: [`float_evidence`]
//! scans each function's token span for float *evidence* (type
//! mentions, float literals, float-only method calls), those facts are
//! injected into the call graph, and [`CallGraph::propagate`] carries
//! them caller-ward exactly like may-panic. [`float_pass`] then reports
//! every root that locally holds or transitively inherits the fact,
//! with a call chain walking from the root to the offending construct.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{CallGraph, Fact, LocalFact};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnDef;

/// Methods that exist only on `f32`/`f64` (or whose name declares a
/// float result). `.sqrt()` on an integer does not compile, so seeing
/// one is proof the receiver is a float.
const FLOAT_METHODS: [&str; 14] = [
    "sqrt", "cbrt", "powf", "powi", "ln", "log2", "log10", "exp", "exp2", "mul_add", "recip",
    "floor", "ceil", "round",
];

fn is_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_')
}

/// `8e9` / `1e` (the head of `1e-9`) — digit-led mantissa, `e`/`E`,
/// digit-only (possibly empty) exponent. Hex like `0x1e9` fails the
/// all-digits mantissa test on the `x`.
fn is_exponent_literal(s: &str) -> bool {
    let Some(epos) = s.bytes().position(|b| b == b'e' || b == b'E') else {
        return false;
    };
    if epos == 0 || !s.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    is_digits(&s[..epos])
        && s[epos + 1..]
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'_')
}

/// Scans one function for direct float usage, returning
/// [`Fact::Float`] local facts anchored at the evidence. Signature
/// types count (a fn returning `f64` taints callers even if its body
/// is opaque); so do casts, suffixed or dotted or exponent literals,
/// and float-only method calls.
pub fn float_evidence(toks: &[Tok], def: &FnDef) -> Vec<LocalFact> {
    let mut out = Vec::new();
    let mut push = |line: u32, col: u32, what: String| {
        out.push(LocalFact {
            fact: Fact::Float,
            line,
            col,
            what,
        });
    };

    for ty in def.param_types.iter().chain(std::iter::once(&def.ret)) {
        for id in ty.split(' ') {
            if id == "f32" || id == "f64" {
                push(def.line, def.col, format!("`{id}` in the signature"));
            }
        }
    }

    let (start, end) = def.body_range;
    scan_slice(&toks[start.min(toks.len())..end.min(toks.len())], &mut push);
    out
}

/// First float evidence in a raw token slice, as `(line, col, what)` —
/// the monotonic pass uses this to spot timestamps round-tripped
/// through floats without building a full function-level fact.
pub fn first_float_in_slice(body: &[Tok]) -> Option<(u32, u32, String)> {
    let mut hit = None;
    scan_slice(body, &mut |line, col, what| {
        if hit.is_none() {
            hit = Some((line, col, what));
        }
    });
    hit
}

/// The shared token-level detector behind [`float_evidence`] and
/// [`first_float_in_slice`].
fn scan_slice(body: &[Tok], push: &mut impl FnMut(u32, u32, String)) {
    for (i, t) in body.iter().enumerate() {
        match t.kind {
            TokKind::Ident => {
                if t.text == "f32" || t.text == "f64" {
                    push(t.line, t.col, format!("`{}`", t.text));
                } else if t.text.ends_with("_f64") || t.text.ends_with("_f32") {
                    // `as_secs_f64()` and friends: conversion methods
                    // that advertise a float result in their name.
                    push(t.line, t.col, format!("`.{}()`", t.text));
                } else if FLOAT_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && body[i - 1].kind == TokKind::Punct
                    && body[i - 1].text == "."
                    && body.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    push(t.line, t.col, format!("`.{}()`", t.text));
                }
            }
            TokKind::Literal => {
                let digit_led = t.text.as_bytes().first().is_some_and(u8::is_ascii_digit);
                if digit_led && (t.text.contains("f64") || t.text.contains("f32")) {
                    push(t.line, t.col, format!("`{}` literal", t.text));
                } else if is_exponent_literal(&t.text) {
                    push(t.line, t.col, format!("`{}` literal", t.text));
                } else if is_digits(&t.text)
                    && body.get(i + 1).is_some_and(|n| n.text == ".")
                    && body
                        .get(i + 2)
                        .is_some_and(|n| n.kind == TokKind::Literal && is_digits(&n.text))
                    // A leading `.` means we're inside a tuple-index
                    // chain (`x.0.1`), not a float literal.
                    && (i == 0 || body[i - 1].text != ".")
                {
                    push(
                        t.line,
                        t.col,
                        format!("`{}.{}` literal", t.text, body[i + 2].text),
                    );
                }
            }
            _ => {}
        }
    }
}

const HINT: &str = "float rounding is platform/opt-level dependent; scheduling math must stay \
                    in integer Ns/Bytes/Bps (u128 ceil-division for rate conversions) — floats \
                    are for reporting only";

/// Reports every `[float] roots` function that locally uses or
/// transitively reaches float arithmetic. Raw findings — suppression
/// is applied centrally by the caller.
pub fn float_pass(graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for root in &cfg.float_roots {
        let nodes = graph.find_qualified(root);
        if nodes.is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "float-root-missing",
                format!("configured float root `{root}` was not found in any scanned file"),
                "a rename silently disables its coverage — update [float] roots",
            ));
            continue;
        }
        for &n in nodes {
            out.extend(graph.fact_findings(
                n,
                Fact::Float,
                HINT,
                |what| format!("{what} in scheduling-path function `{root}`"),
                |callee| format!("scheduling-path function `{root}` uses floats via `{callee}`"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str, roots: &[&str]) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let mut graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        graph.add_local_facts(|n| float_evidence(&lexed.toks, &n.def));
        let cfg = Config {
            float_roots: roots.iter().map(|s| (*s).to_string()).collect(),
            ..Config::default()
        };
        float_pass(&graph, &cfg)
    }

    #[test]
    fn direct_float_in_root_is_flagged() {
        let d = run(
            "impl Q { fn schedule(&self) -> u64 { let x = self.t.as_secs_f64(); x as u64 } }",
            &["Q::schedule"],
        );
        assert!(d
            .iter()
            .any(|d| d.rule == "float-determinism" && d.message.contains("as_secs_f64")));
    }

    #[test]
    fn three_deep_chain_reaches_the_root_with_a_chain() {
        let src = "
            impl Q {
                fn schedule(&self) { self.a(); }
                fn a(&self) { self.b(); }
                fn b(&self) -> u64 { (1.5 * 2.0) as u64 }
            }";
        let d = run(src, &["Q::schedule"]);
        let hit = d
            .iter()
            .find(|d| d.rule == "float-determinism")
            .expect("chain finding");
        assert!(hit.message.contains("via `Q::a`"), "{}", hit.message);
        assert!(hit.chain.len() >= 3, "chain: {:?}", hit.chain);
    }

    #[test]
    fn integer_only_root_is_clean() {
        let d = run(
            "impl Q { fn schedule(&self) -> u64 { let x = 1_000_000u64; x * 8 / 2 } }",
            &["Q::schedule"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn exponent_literal_is_float_but_hex_is_not() {
        let d = run(
            "impl Q { fn schedule(&self) -> u64 { 8e9 as u64 } }",
            &["Q::schedule"],
        );
        assert!(d.iter().any(|d| d.message.contains("`8e9` literal")));
        let d = run(
            "impl Q { fn schedule(&self) -> u64 { 0x1e9 } }",
            &["Q::schedule"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tuple_indexing_and_ranges_are_not_literals() {
        let d = run(
            "impl Q { fn schedule(&self, p: (u64, (u64, u64))) -> u64 {
                 let mut s = p.1 .0; for i in 0..10 { s += i } s } }",
            &["Q::schedule"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_signature_taints_callers() {
        let src = "
            impl Q { fn schedule(&self) { helper(3); } }
            fn helper(x: u64) -> f64 { unrelated(x) }";
        let d = run(src, &["Q::schedule"]);
        assert!(d.iter().any(|d| d.message.contains("via `helper`")));
    }

    #[test]
    fn missing_root_is_reported() {
        let d = run("fn other() {}", &["Q::schedule"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-root-missing");
    }

    #[test]
    fn float_method_needs_dot_and_call() {
        // `round` as a free fn name or a bare ident is not evidence.
        let d = run(
            "impl Q { fn schedule(&self) -> u64 { round(7) } }
             fn round(x: u64) -> u64 { x }",
            &["Q::schedule"],
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
