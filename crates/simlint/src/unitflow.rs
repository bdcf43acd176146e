//! Units/dimension dataflow: catching `ns + us` before it skews a
//! simulation.
//!
//! Every quantity the simulator moves around is a bare `u64` at the
//! machine level; the paper's arithmetic mixes nanoseconds,
//! microsecond-scale sampling intervals, byte counts, link rates in
//! bits per second, and packet counts. A missing `* 1_000` (or a
//! spurious one) produces a run that is *plausible but wrong* — the
//! classic silent-failure mode of simulation code. This pass assigns
//! each expression a **dimension** and flags arithmetic that combines
//! incompatible ones.
//!
//! Dimensions are seeded from three sources, in decreasing strength:
//!
//! 1. **Newtypes** — parameters/returns typed `Ns`, `Bytes`, `Bps`
//!    (the `ms-units`/`dcsim::time` types) carry their dimension
//!    exactly.
//! 2. **Identifier suffixes** — `_ns`, `_us`, `_ms`, `_secs`,
//!    `_bytes`, `_bits`, `_pkts`, `_bps`, `_mbps`, `_gbps` on
//!    parameters, locals, and fields. Suffix-derived values are
//!    marked *raw* (plain integers), which is what arms the
//!    unchecked-scale rule.
//! 3. **Call signatures** — a call site inherits the callee's return
//!    dimension through the call graph (`Ns::tx_time` returns
//!    `TimeNs`; `fn header_bytes() -> u64` returns raw `bytes`).
//!
//! Values propagate through `let` bindings, arithmetic, casts, and the
//! dimension-preserving std methods (`max`, `saturating_add`, …). The
//! pass is deliberately conservative: a diagnostic fires only when
//! **both** operands have a known dimension, so unannotated code stays
//! silent rather than noisy.
//!
//! Rules:
//!
//! * `unit-mismatch` — adding/subtracting/comparing/assigning/passing
//!   values of different dimensions (`start_ns + delay_us`), and
//!   rate×volume products.
//! * `unchecked-scale` — a *raw* integer scaled by a recognized unit
//!   conversion factor (`interval_us * 1_000`): the conversion itself
//!   is fine, but an unchecked `u64` multiply overflows silently in
//!   release builds. The newtype constructors
//!   (`Ns::checked_from_micros`, saturating `from_*`) exist for this.

use std::collections::BTreeMap;

use crate::body::{matching, skip_angles, split_args, Let, Pass, Walker};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};

/// The dimension lattice. `family` groups units that a correct program
/// may convert between with an explicit scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    TimeNs,
    TimeUs,
    TimeMs,
    TimeSecs,
    Bytes,
    Bits,
    Pkts,
    Bps,
    Mbps,
    Gbps,
}

impl Dim {
    /// Short human name used in diagnostics (`ns`, `bytes`, `gbps`).
    pub fn name(self) -> &'static str {
        match self {
            Dim::TimeNs => "ns",
            Dim::TimeUs => "us",
            Dim::TimeMs => "ms",
            Dim::TimeSecs => "secs",
            Dim::Bytes => "bytes",
            Dim::Bits => "bits",
            Dim::Pkts => "pkts",
            Dim::Bps => "bps",
            Dim::Mbps => "mbps",
            Dim::Gbps => "gbps",
        }
    }

    fn family(self) -> &'static str {
        match self {
            Dim::TimeNs | Dim::TimeUs | Dim::TimeMs | Dim::TimeSecs => "time",
            Dim::Bytes | Dim::Bits => "volume",
            Dim::Pkts => "packets",
            Dim::Bps | Dim::Mbps | Dim::Gbps => "rate",
        }
    }
}

/// Abstract value of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// Carries a dimension. `raw` means bare-integer provenance
    /// (suffix ident, `as_*` accessor, cast) rather than a newtype —
    /// only raw values arm the unchecked-scale rule.
    Dim {
        dim: Dim,
        raw: bool,
    },
    /// Dimensionless number; the payload is the literal's value when
    /// it appeared verbatim (that is what scale factors look like).
    Num(Option<u64>),
    Unknown,
}

/// `_ns`-style identifier suffix → dimension. The underscore is
/// required on purpose: a parameter literally named `us` (as in
/// `Ns::from_micros(us: u64)`) is a conversion *input* and must not be
/// typed, or every converter would flag its own body.
fn suffix_dim(name: &str) -> Option<Dim> {
    for (suf, d) in [
        ("_ns", Dim::TimeNs),
        ("_us", Dim::TimeUs),
        ("_ms", Dim::TimeMs),
        ("_secs", Dim::TimeSecs),
        ("_bytes", Dim::Bytes),
        ("_bits", Dim::Bits),
        ("_pkts", Dim::Pkts),
        ("_bps", Dim::Bps),
        ("_mbps", Dim::Mbps),
        ("_gbps", Dim::Gbps),
    ] {
        if name.ends_with(suf) {
            return Some(d);
        }
    }
    None
}

/// Newtype name → dimension (exact match on the space-joined type
/// ident string, so `Vec Ns` stays untyped).
fn type_dim(ty: &str) -> Option<Dim> {
    match ty {
        "Ns" => Some(Dim::TimeNs),
        "Bytes" => Some(Dim::Bytes),
        "Bps" => Some(Dim::Bps),
        _ => None,
    }
}

/// `.as_nanos()`-style accessors: name fully determines the result
/// dimension, always raw.
fn accessor_dim(name: &str) -> Option<Dim> {
    match name {
        "as_nanos" => Some(Dim::TimeNs),
        "as_micros" => Some(Dim::TimeUs),
        "as_millis" => Some(Dim::TimeMs),
        "as_secs" => Some(Dim::TimeSecs),
        _ => None,
    }
}

/// Methods that return a value of the same dimension as the receiver.
const PRESERVE: [&str; 14] = [
    "max",
    "min",
    "clamp",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "abs_diff",
    "unwrap",
    "expect",
    "unwrap_or",
];

/// Recognized multiplicative unit conversions: `dim × factor → dim'`.
fn scale_mul(dim: Dim, k: u64) -> Option<Dim> {
    match (dim, k) {
        (Dim::TimeUs, 1_000) => Some(Dim::TimeNs),
        (Dim::TimeMs, 1_000) => Some(Dim::TimeUs),
        (Dim::TimeMs, 1_000_000) => Some(Dim::TimeNs),
        (Dim::TimeSecs, 1_000) => Some(Dim::TimeMs),
        (Dim::TimeSecs, 1_000_000) => Some(Dim::TimeUs),
        (Dim::TimeSecs, 1_000_000_000) => Some(Dim::TimeNs),
        (Dim::Bytes, 8) => Some(Dim::Bits),
        (Dim::Mbps, 1_000_000) => Some(Dim::Bps),
        (Dim::Gbps, 1_000) => Some(Dim::Mbps),
        (Dim::Gbps, 1_000_000_000) => Some(Dim::Bps),
        _ => None,
    }
}

/// Recognized divisive conversions: `dim / factor → dim'`.
fn scale_div(dim: Dim, k: u64) -> Option<Dim> {
    match (dim, k) {
        (Dim::TimeNs, 1_000) => Some(Dim::TimeUs),
        (Dim::TimeNs, 1_000_000) => Some(Dim::TimeMs),
        (Dim::TimeNs, 1_000_000_000) => Some(Dim::TimeSecs),
        (Dim::TimeUs, 1_000) => Some(Dim::TimeMs),
        (Dim::TimeUs, 1_000_000) => Some(Dim::TimeSecs),
        (Dim::TimeMs, 1_000) => Some(Dim::TimeSecs),
        (Dim::Bits, 8) => Some(Dim::Bytes),
        (Dim::Bps, 1_000_000) => Some(Dim::Mbps),
        (Dim::Bps, 1_000_000_000) => Some(Dim::Gbps),
        (Dim::Mbps, 1_000) => Some(Dim::Gbps),
        _ => None,
    }
}

/// Parses an integer literal token (`1_000`, `8u64`, `0x10`) to its
/// value, best effort.
fn literal_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let t = t
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u128")
        .trim_end_matches("usize")
        .trim_end_matches("i64")
        .trim_end_matches("i32");
    if let Some(hex) = t.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

const MISMATCH_HINT: &str = "operands carry different dimensions; convert explicitly via the \
                             Ns/Bytes/Bps constructors or their as_* accessors";
const SCALE_HINT: &str = "a plain u64 multiply by a conversion factor overflows silently in \
                          release builds; use the checked/saturating newtype constructors \
                          (Ns::checked_from_micros, Bytes::checked_bits) or a u128 intermediate";

/// Per-pass counters surfaced in the bench artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitStats {
    /// Functions that entered the evaluator with at least one known
    /// dimension (params, self, or return type).
    pub fns_typed: usize,
    /// Dimension assignments tracked across all functions (seeded
    /// params + dimensioned `let` bindings).
    pub dimension_facts: usize,
}

/// Callee info visible at a call site.
struct CalleeSig {
    ret: Option<(Dim, bool)>,
    /// Qualified name, for arg-mismatch messages.
    name: String,
    /// (param name, dimension) per parameter, `self` included.
    params: Vec<(String, Option<Dim>)>,
}

/// The units pass's side of the shared [`Walker`]: callee signatures
/// by call site, plus what it reports.
struct Units<'a> {
    /// Call-site name-token position → callee signature.
    calls: &'a BTreeMap<(u32, u32), CalleeSig>,
    file: &'a str,
    fn_name: String,
    diags: Vec<Diagnostic>,
    facts: usize,
}

impl Pass for Units<'_> {
    type Val = Val;

    /// `let [mut] name [: Ty] = expr` — checks the name's suffix against
    /// the value's dimension and binds the annotation's, the value's, or
    /// the suffix's dimension, strongest first.
    fn bind(
        w: &mut Walker<'_, Self>,
        l: &Let,
        rhs: (usize, usize),
        end: usize,
    ) -> (Option<Val>, usize) {
        let (val, k) = w.eval_cmp(rhs.0, end);
        let Some(n) = l.single() else {
            return (None, k);
        };
        let toks = w.toks;
        let name = toks[n].text.as_str();
        let declared = suffix_dim(name);
        if let (Some(want), Val::Dim { dim, .. }) = (declared, val) {
            if dim != want {
                w.flag(
                    n,
                    "unit-mismatch",
                    &format!(
                        "binds a `{}` value to `{name}` (suffix says `{}`)",
                        dim.name(),
                        want.name()
                    ),
                );
            }
        }
        let bound = if let Some(d) = type_dim(&l.annot.join(" ")) {
            Val::Dim { dim: d, raw: false }
        } else if matches!(val, Val::Dim { .. }) {
            val
        } else if let Some(d) = declared {
            Val::Dim { dim: d, raw: true }
        } else {
            val
        };
        if matches!(bound, Val::Dim { .. }) {
            w.pass.facts += 1;
        }
        (Some(bound), k)
    }

    /// Everything else goes through the expression evaluator. Mis-parses
    /// degrade to `Unknown`, never to a false diagnostic — flags require
    /// both dimensions known.
    fn step(w: &mut Walker<'_, Self>, i: usize, end: usize) -> usize {
        w.eval_cmp(i, end).1
    }
}

impl Walker<'_, Units<'_>> {
    /// Reports `what` (suffixed with the enclosing function) at token
    /// `i`.
    fn flag(&mut self, i: usize, rule: &str, what: &str) {
        let (line, col) = self.t(i).map_or((1, 1), |t| (t.line, t.col));
        let hint = if rule == "unchecked-scale" {
            SCALE_HINT
        } else {
            MISMATCH_HINT
        };
        let message = format!("{what} in `{}`", self.pass.fn_name);
        let d = Diagnostic::new(self.pass.file, line, col, rule, message, hint);
        self.pass.diags.push(d);
    }

    /// Evaluates the expression at `i`, then walks whatever trails it
    /// before `end` (tuple elements, unparsed tokens).
    fn eval_all(&mut self, i: usize, end: usize) -> (Val, usize) {
        let (val, k) = self.eval_cmp(i, end);
        if k < end {
            self.walk(k, end);
        }
        (val, k)
    }

    /// Index just past the bracket matching the opener at `open`, or
    /// `end` when it does not close before it.
    fn past(&self, open: usize, end: usize) -> usize {
        matching(self.toks, open)
            .filter(|&c| c < end)
            .map_or(end, |c| c + 1)
    }

    // ---- expression evaluation ----------------------------------------

    /// Comparison / assignment tier. Assignment and compound
    /// assignment are checked here so `t_us += delta_ns` and
    /// `deadline = t_us` both flag.
    fn eval_cmp(&mut self, i: usize, end: usize) -> (Val, usize) {
        let (lhs, j) = self.eval_add(i, end);
        // Comparison operators (shift, `=>`, `->`, and generics fall
        // out naturally: either the punct pattern differs or one side
        // has no dimension).
        if let Some(op) = self.cmp_op(j, end) {
            let oplen = op.len();
            let (rhs, k) = self.eval_add(j + oplen, end);
            if let (Val::Dim { dim: a, .. }, Val::Dim { dim: b, .. }) = (lhs, rhs) {
                if a != b {
                    self.flag(
                        j,
                        "unit-mismatch",
                        &format!("compares `{}` with `{}`", a.name(), b.name()),
                    );
                }
            }
            return (Val::Num(None), k);
        }
        // `lhs = rhs` / `lhs += rhs` / `lhs -= rhs` / `lhs *= rhs` / `lhs /= rhs`.
        if let Some(op) = self.assign_op(j, end) {
            let oplen = if op == "=" { 1 } else { 2 };
            let (rhs, k) = self.eval_cmp(j + oplen, end);
            match op {
                "=" => {
                    if let (Val::Dim { dim: a, .. }, Val::Dim { dim: b, .. }) = (lhs, rhs) {
                        if a != b {
                            self.flag(
                                j,
                                "unit-mismatch",
                                &format!(
                                    "assigns a `{}` value to a `{}` place",
                                    b.name(),
                                    a.name()
                                ),
                            );
                        }
                    }
                }
                "+=" | "-=" => {
                    let opc = if op == "+=" { '+' } else { '-' };
                    self.combine_add(lhs, rhs, opc, j);
                }
                "*=" | "/=" => {
                    let opc = if op == "*=" { '*' } else { '/' };
                    self.combine_mul(lhs, rhs, opc, j);
                }
                _ => {}
            }
            return (Val::Unknown, k);
        }
        (lhs, j)
    }

    /// The punctuation token at `j`, if it lies before `end`.
    fn punct(&self, j: usize, end: usize) -> Option<&Tok> {
        self.t(j).filter(|t| j < end && t.kind == TokKind::Punct)
    }

    fn cmp_op(&self, j: usize, end: usize) -> Option<&'static str> {
        let a = self.punct(j, end)?;
        let b = self
            .t(j + 1)
            .filter(|t| t.kind == TokKind::Punct && t.line == a.line);
        let bt = b.map(|t| t.text.as_str());
        match (a.text.as_str(), bt) {
            ("=", Some("=")) => Some("=="),
            ("!", Some("=")) => Some("!="),
            ("<", Some("=")) => Some("<="),
            (">", Some("=")) => Some(">="),
            ("<", Some("<")) | (">", Some(">")) => None, // shifts
            ("<", _) => Some("<"),
            (">", _) => Some(">"),
            _ => None,
        }
    }

    fn assign_op(&self, j: usize, end: usize) -> Option<&'static str> {
        let a = self.punct(j, end)?;
        let next_eq = self.is_punct(j + 1, '=');
        match a.text.as_str() {
            // Not `==` (handled above as cmp) and not `=>`.
            "=" if next_eq || self.is_punct(j + 1, '>') => None,
            "=" => Some("="),
            "+" if next_eq => Some("+="),
            "-" if next_eq => Some("-="),
            "*" if next_eq => Some("*="),
            "/" if next_eq => Some("/="),
            _ => None,
        }
    }

    fn eval_add(&mut self, i: usize, end: usize) -> (Val, usize) {
        let (mut acc, mut j) = self.eval_mul(i, end);
        loop {
            let Some(t) = self.punct(j, end) else { break };
            let op = t.text.as_str();
            if op != "+" && op != "-" {
                break;
            }
            // `+=`, `-=`, `->` belong to enclosing tiers.
            let nxt = self.t(j + 1).map(|t| t.text.as_str());
            if nxt == Some("=") || (op == "-" && nxt == Some(">")) {
                break;
            }
            let opc = if op == "+" { '+' } else { '-' };
            let (rhs, k) = self.eval_mul(j + 1, end);
            if k == j + 1 {
                break;
            }
            acc = self.combine_add(acc, rhs, opc, j);
            j = k;
        }
        (acc, j)
    }

    fn eval_mul(&mut self, i: usize, end: usize) -> (Val, usize) {
        let (mut acc, mut j) = self.eval_unary(i, end);
        loop {
            let Some(t) = self.punct(j, end) else { break };
            let op = t.text.as_str();
            if op != "*" && op != "/" && op != "%" {
                break;
            }
            if self.t(j + 1).map(|t| t.text.as_str()) == Some("=") {
                break;
            }
            let opc = op.chars().next().unwrap_or('*');
            let (rhs, k) = self.eval_unary(j + 1, end);
            if k == j + 1 {
                break;
            }
            acc = self.combine_mul(acc, rhs, opc, j);
            j = k;
        }
        (acc, j)
    }

    fn eval_unary(&mut self, mut i: usize, end: usize) -> (Val, usize) {
        while i < end
            && (self.is_punct(i, '-')
                || self.is_punct(i, '!')
                || self.is_punct(i, '&')
                || self.is_punct(i, '*'))
        {
            i += 1;
        }
        self.eval_postfix(i, end)
    }

    fn eval_postfix(&mut self, i: usize, end: usize) -> (Val, usize) {
        let (mut val, mut j) = self.operand(i, end);
        if j == i {
            return (Val::Unknown, i);
        }
        loop {
            if j >= end {
                break;
            }
            if self.is_punct(j, '.') {
                let Some(next) = self.t(j + 1) else { break };
                match next.kind {
                    TokKind::Ident => {
                        let name = next.text.clone();
                        if self.is_punct(j + 2, '(') {
                            let close = self.past(j + 2, end);
                            val = self.method_result(&name, (next.line, next.col), val);
                            self.call_args(j + 2, close, (next.line, next.col), true);
                            j = close;
                        } else {
                            // Field access: the suffix is the only signal.
                            val = match suffix_dim(&name) {
                                Some(d) => Val::Dim { dim: d, raw: true },
                                None => Val::Unknown,
                            };
                            j += 2;
                        }
                    }
                    TokKind::Literal => {
                        // Tuple index: type information is lost.
                        val = Val::Unknown;
                        j += 2;
                    }
                    _ => break,
                }
            } else if self.is_ident(j, "as") {
                // A cast keeps the dimension. `as u128` is the
                // sanctioned overflow-proof intermediate — no u64
                // quantity times a recognized scale factor can wrap
                // 128 bits — so it disarms unchecked-scale; any other
                // cast yields a bare (raw) integer.
                let widened = self
                    .t(j + 1)
                    .is_some_and(|t| t.text == "u128" || t.text == "i128");
                if let Val::Dim { dim, .. } = val {
                    val = Val::Dim { dim, raw: !widened };
                }
                j += 2; // `as` + single type ident (enough for u64/u128/usize/f64)
            } else if self.is_punct(j, '?') {
                j += 1;
            } else if self.is_punct(j, '[') {
                // Indexing an array of unit values yields the same
                // unit (`gaps_ns[i]`).
                let close = self.past(j, end);
                self.walk(j + 1, close.saturating_sub(1).max(j + 1));
                j = close;
            } else {
                break;
            }
        }
        (val, j)
    }

    fn operand(&mut self, i: usize, end: usize) -> (Val, usize) {
        if i >= end {
            return (Val::Unknown, i);
        }
        let Some(t) = self.t(i) else {
            return (Val::Unknown, i);
        };
        match t.kind {
            TokKind::Literal => (Val::Num(literal_value(&t.text)), i + 1),
            TokKind::Ident => {
                let name = t.text.clone();
                if KEYWORDS.contains(&name.as_str()) {
                    return (Val::Unknown, i);
                }
                // Path: walk `a::b::c`; the final segment is the call
                // or constant.
                let mut j = i;
                let mut last = (name.clone(), t.line, t.col);
                while self.is_punct(j + 1, ':') && self.is_punct(j + 2, ':') {
                    // Turbofish `::<…>` — skip the generic args.
                    if self.is_punct(j + 3, '<') {
                        j = skip_angles(self.toks, j + 3) - 1;
                        continue;
                    }
                    let Some(seg) = self.t(j + 3) else { break };
                    if seg.kind != TokKind::Ident {
                        break;
                    }
                    last = (seg.text.clone(), seg.line, seg.col);
                    j += 3;
                }
                if self.is_punct(j + 1, '(') {
                    let close = self.past(j + 1, end);
                    let site = (last.1, last.2);
                    let val = if let Some(d) = type_dim(&last.0) {
                        // `Ns(…)` / `Bytes(…)` / `Bps(…)` tuple ctor:
                        // the wrapped value must already carry the
                        // target dimension (or none at all).
                        let inner_end = (close - 1).max(j + 2);
                        let (arg, _) = self.eval_all(j + 2, inner_end);
                        if let Val::Dim { dim: a, .. } = arg {
                            if a != d {
                                self.flag(
                                    j + 2,
                                    "unit-mismatch",
                                    &format!("wraps a `{}` value in `{}`", a.name(), last.0),
                                );
                            }
                        }
                        return (Val::Dim { dim: d, raw: false }, close);
                    } else if let Some(sig) = self.pass.calls.get(&site) {
                        sig.ret
                            .map_or(Val::Unknown, |(dim, raw)| Val::Dim { dim, raw })
                    } else {
                        suffix_dim(&last.0).map_or(Val::Unknown, |d| Val::Dim { dim: d, raw: true })
                    };
                    self.call_args(j + 1, close, site, false);
                    return (val, close);
                }
                if j > i {
                    // Path constant / unit struct — no tracking.
                    return (Val::Unknown, j + 1);
                }
                if name == "self" {
                    return (self.env.get("self").copied().unwrap_or(Val::Unknown), i + 1);
                }
                let val = self
                    .env
                    .get(&name)
                    .copied()
                    .or_else(|| suffix_dim(&name).map(|d| Val::Dim { dim: d, raw: true }))
                    .unwrap_or(Val::Unknown);
                (val, i + 1)
            }
            TokKind::Punct => {
                if t.text == "(" {
                    let close = self.past(i, end);
                    let inner_end = close.saturating_sub(1).max(i + 1);
                    // A tuple or trailing tokens lose the value.
                    let (val, k) = self.eval_all(i + 1, inner_end);
                    (if k < inner_end { Val::Unknown } else { val }, close)
                } else if t.text == "[" {
                    let close = self.past(i, end);
                    self.walk(i + 1, close.saturating_sub(1).max(i + 1));
                    (Val::Unknown, close)
                } else {
                    (Val::Unknown, i)
                }
            }
            TokKind::Lifetime => (Val::Unknown, i + 1),
        }
    }

    /// Result dimension of a resolved or intrinsic method call.
    fn method_result(&self, name: &str, site: (u32, u32), recv: Val) -> Val {
        if let Some(sig) = self.pass.calls.get(&site) {
            if let Some((dim, raw)) = sig.ret {
                return Val::Dim { dim, raw };
            }
        }
        if let Some(d) = accessor_dim(name) {
            return Val::Dim { dim: d, raw: true };
        }
        if name == "as_u64" {
            return match recv {
                Val::Dim { dim, .. } => Val::Dim { dim, raw: true },
                _ => Val::Unknown,
            };
        }
        if PRESERVE.contains(&name) {
            return recv;
        }
        Val::Unknown
    }

    /// Evaluates each comma-separated argument in `(open, close)` and
    /// checks it against the callee's parameter dimension when both
    /// are known.
    fn call_args(&mut self, open: usize, close: usize, site: (u32, u32), method_syntax: bool) {
        // Parameter dims of the resolved callee, if any. For method
        // syntax the receiver consumes params[0] when it is `self`.
        let param_info: Option<(String, Vec<(String, Option<Dim>)>)> = self
            .pass
            .calls
            .get(&site)
            .map(|sig| (sig.name.clone(), sig.params.clone()));
        let offset = match &param_info {
            Some((_, params)) if method_syntax && params.first().is_some_and(|p| p.0 == "self") => {
                1
            }
            _ => 0,
        };

        let args = split_args(self.toks, open, close.saturating_sub(1));
        for (idx, &(s, e)) in args.iter().enumerate() {
            if e <= s {
                continue;
            }
            let (val, _) = self.eval_all(s, e);
            if let (Some((callee, params)), Val::Dim { dim: a, .. }) = (&param_info, val) {
                if let Some((pname, Some(b))) = params.get(idx + offset) {
                    if a != *b {
                        self.flag(
                            s,
                            "unit-mismatch",
                            &format!(
                                "passes `{}` to `{pname}` of `{callee}` (expects `{}`)",
                                a.name(),
                                b.name()
                            ),
                        );
                    }
                }
            }
        }
    }

    // ---- combination rules --------------------------------------------

    fn combine_add(&mut self, a: Val, b: Val, op: char, at: usize) -> Val {
        match (a, b) {
            (Val::Dim { dim: da, raw: ra }, Val::Dim { dim: db, raw: rb }) => {
                if da != db {
                    let verb = if op == '+' { "adds" } else { "subtracts" };
                    self.flag(
                        at,
                        "unit-mismatch",
                        &format!("{verb} `{}` and `{}`", da.name(), db.name()),
                    );
                    Val::Unknown
                } else {
                    Val::Dim {
                        dim: da,
                        raw: ra || rb,
                    }
                }
            }
            (d @ Val::Dim { .. }, Val::Num(_)) | (Val::Num(_), d @ Val::Dim { .. }) => d,
            (Val::Num(_), Val::Num(_)) => Val::Num(None),
            _ => Val::Unknown,
        }
    }

    fn combine_mul(&mut self, a: Val, b: Val, op: char, at: usize) -> Val {
        match op {
            '*' => match (a, b) {
                (Val::Dim { dim, raw }, Val::Num(Some(k)))
                | (Val::Num(Some(k)), Val::Dim { dim, raw }) => {
                    if let Some(d2) = scale_mul(dim, k) {
                        if raw {
                            self.flag(
                                at,
                                "unchecked-scale",
                                &format!(
                                    "unchecked u64 multiply scales `{}` to `{}`",
                                    dim.name(),
                                    d2.name()
                                ),
                            );
                        }
                        Val::Dim { dim: d2, raw }
                    } else {
                        Val::Dim { dim, raw }
                    }
                }
                (Val::Dim { dim, raw }, Val::Num(None))
                | (Val::Num(None), Val::Dim { dim, raw }) => Val::Dim { dim, raw },
                (Val::Dim { dim: da, .. }, Val::Dim { dim: db, .. }) => {
                    let fams = (da.family(), db.family());
                    if fams == ("rate", "volume") || fams == ("volume", "rate") {
                        self.flag(
                            at,
                            "unit-mismatch",
                            &format!("multiplies `{}` by `{}`", da.name(), db.name()),
                        );
                    }
                    Val::Unknown
                }
                (Val::Num(Some(x)), Val::Num(Some(y))) => Val::Num(x.checked_mul(y)),
                (Val::Num(_), Val::Num(_)) => Val::Num(None),
                _ => Val::Unknown,
            },
            '/' => match (a, b) {
                (Val::Dim { dim, raw }, Val::Num(Some(k))) => {
                    if let Some(d2) = scale_div(dim, k) {
                        Val::Dim { dim: d2, raw }
                    } else {
                        Val::Dim { dim, raw }
                    }
                }
                (Val::Dim { dim, raw }, Val::Num(None)) => Val::Dim { dim, raw },
                (Val::Dim { dim: da, .. }, Val::Dim { dim: db, .. }) if da == db => Val::Num(None),
                (Val::Num(_), Val::Num(_)) => Val::Num(None),
                _ => Val::Unknown,
            },
            // `%` keeps the unit of the left operand.
            _ => match a {
                Val::Dim { .. } => a,
                Val::Num(_) => Val::Num(None),
                Val::Unknown => Val::Unknown,
            },
        }
    }
}

/// Keywords the operand parser must not treat as variables.
const KEYWORDS: [&str; 20] = [
    "if", "else", "match", "for", "while", "loop", "return", "break", "continue", "in", "move",
    "ref", "mut", "let", "fn", "impl", "struct", "enum", "pub", "where",
];

/// Runs the units/dimension pass over every scanned function. Raw
/// findings — suppression is applied centrally by the caller.
pub fn unit_pass(
    graph: &CallGraph,
    tokens: &BTreeMap<String, Vec<Tok>>,
    cfg: &Config,
) -> (Vec<Diagnostic>, UnitStats) {
    // Return dimension per node, seeded from newtype returns, `Self`,
    // and fn-name suffixes.
    let ret_dims: Vec<Option<(Dim, bool)>> = graph
        .nodes
        .iter()
        .map(|n| {
            let ret = n.def.ret.as_str();
            if let Some(d) = type_dim(ret) {
                return Some((d, false));
            }
            if ret == "Self" {
                if let Some(d) = n.def.self_ty.as_deref().and_then(type_dim) {
                    return Some((d, false));
                }
            }
            suffix_dim(&n.def.name).map(|d| (d, true))
        })
        .collect();

    let mut out = Vec::new();
    let mut stats = UnitStats::default();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if cfg
            .relaxed
            .iter()
            .any(|c| node.crate_dir.starts_with(c.as_str()))
            || node.def.in_cfg_test
            || node.file.contains("tests/")
        {
            continue;
        }
        let (bs, be) = node.def.body_range;
        if be <= bs {
            continue;
        }
        let Some(toks) = tokens.get(&node.file) else {
            continue;
        };

        // Callee signatures reachable from this body, keyed by call
        // site.
        let mut calls: BTreeMap<(u32, u32), CalleeSig> = BTreeMap::new();
        for edge in &node.calls {
            let Some(c) = edge.callee else { continue };
            let callee = &graph.nodes[c];
            let params = callee
                .def
                .params
                .iter()
                .zip(&callee.def.param_types)
                .map(|(p, ty)| {
                    let d = type_dim(ty).or_else(|| suffix_dim(p));
                    (p.clone(), d)
                })
                .collect();
            calls.insert(
                (edge.site.line, edge.site.col),
                CalleeSig {
                    ret: ret_dims[c],
                    name: callee.qualified(),
                    params,
                },
            );
        }

        // Seed the environment from the signature.
        let mut env = BTreeMap::new();
        for (p, ty) in node.def.params.iter().zip(&node.def.param_types) {
            if p == "self" {
                if let Some(d) = node.def.self_ty.as_deref().and_then(type_dim) {
                    env.insert("self".to_string(), Val::Dim { dim: d, raw: false });
                }
                continue;
            }
            if let Some(d) = type_dim(ty) {
                env.insert(p.clone(), Val::Dim { dim: d, raw: false });
            } else if let Some(d) = suffix_dim(p) {
                env.insert(p.clone(), Val::Dim { dim: d, raw: true });
            }
        }
        let seeded = env.len();
        if seeded > 0 || ret_dims[ni].is_some() {
            stats.fns_typed += 1;
        }
        stats.dimension_facts += seeded;

        let mut w = Walker {
            toks,
            env,
            pass: Units {
                calls: &calls,
                file: &node.file,
                fn_name: node.qualified(),
                diags: Vec::new(),
                facts: 0,
            },
        };
        w.walk(bs, be.min(toks.len()));
        stats.dimension_facts += w.pass.facts;
        out.extend(w.pass.diags);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_cfg(src, &Config::default())
    }

    fn run_cfg(src: &str, cfg: &Config) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        unit_pass(&graph, &tokens, cfg).0
    }

    fn has(d: &[Diagnostic], rule: &str, frag: &str) -> bool {
        d.iter().any(|d| d.rule == rule && d.message.contains(frag))
    }

    #[test]
    fn cross_unit_add_is_flagged() {
        let d = run("fn f(start_ns: u64, delay_us: u64) -> u64 { start_ns + delay_us }");
        assert!(has(&d, "unit-mismatch", "adds `ns` and `us`"), "{d:?}");
    }

    #[test]
    fn same_unit_add_is_clean() {
        let d = run("fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns + 5 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cross_family_compare_is_flagged() {
        let d = run("fn f(t_ns: u64, sz_bytes: u64) -> bool { t_ns < sz_bytes }");
        assert!(
            has(&d, "unit-mismatch", "compares `ns` with `bytes`"),
            "{d:?}"
        );
    }

    #[test]
    fn dim_vs_literal_compare_is_clean() {
        let d = run("fn f(t_ns: u64) -> bool { t_ns < 1_000_000 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn let_binding_propagates_dimension() {
        let d = run("fn f(t_us: u64, base_ns: u64) -> u64 { let x = t_us; base_ns + x }");
        assert!(has(&d, "unit-mismatch", "adds `ns` and `us`"), "{d:?}");
    }

    #[test]
    fn suffix_vs_value_mismatch_on_let() {
        let d = run("fn f(t_us: u64) -> u64 { let total_ns = t_us; total_ns }");
        assert!(has(&d, "unit-mismatch", "suffix says `ns`"), "{d:?}");
    }

    #[test]
    fn explicit_scale_conversion_is_accepted_but_unchecked_scale_fires() {
        let d = run("fn f(t_us: u64, base_ns: u64) -> u64 { base_ns + t_us * 1_000 }");
        assert!(!has(&d, "unit-mismatch", "adds"), "{d:?}");
        assert!(has(&d, "unchecked-scale", "scales `us` to `ns`"), "{d:?}");
    }

    #[test]
    fn u128_widening_disarms_unchecked_scale() {
        // The sanctioned pattern from Ns::tx_time: widen first, then
        // scale — the multiply cannot wrap 128 bits.
        let d = run("fn f(n_bytes: u64) -> u128 { n_bytes as u128 * 8 * 1_000_000_000 }");
        assert!(d.is_empty(), "{d:?}");
        let d = run("fn f(n_bytes: u64) -> u64 { n_bytes * 8 }");
        assert!(
            has(&d, "unchecked-scale", "scales `bytes` to `bits`"),
            "{d:?}"
        );
    }

    #[test]
    fn division_scale_conversion_is_clean() {
        let d = run("fn f(t_ns: u64) -> u64 { let t_us = t_ns / 1_000; t_us }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn newtype_params_are_typed_and_not_raw() {
        // `Ns`-typed param scaled by 1000 is *not* unchecked-scale
        // (the newtype's ops are saturating/checked by design), and
        // mixing it with a `_us` raw value still flags.
        let src = "
            struct Ns(u64);
            fn f(at: Ns, d_us: u64) -> bool { at.as_u64() < d_us }";
        let d = run(src);
        assert!(has(&d, "unit-mismatch", "compares `ns` with `us`"), "{d:?}");
    }

    #[test]
    fn accessor_methods_set_the_dimension() {
        let d = run("fn f(t: Ns, lim_us: u64) -> bool { t.as_nanos() < lim_us }");
        assert!(has(&d, "unit-mismatch", "compares `ns` with `us`"), "{d:?}");
    }

    #[test]
    fn call_return_dimension_flows_through() {
        let src = "
            fn window_ns() -> u64 { 1_000_000 }
            fn f(t_us: u64) -> u64 { window_ns() + t_us }";
        let d = run(src);
        assert!(has(&d, "unit-mismatch", "adds `ns` and `us`"), "{d:?}");
    }

    #[test]
    fn arg_dimension_checked_against_param() {
        let src = "
            fn push(t_ns: u64) -> u64 { t_ns }
            fn f(d_us: u64) -> u64 { push(d_us) }";
        let d = run(src);
        assert!(
            has(&d, "unit-mismatch", "passes `us` to `t_ns` of `push`"),
            "{d:?}"
        );
    }

    #[test]
    fn method_arg_offset_skips_self() {
        let src = "
            impl Q {
                fn at(&self, t_ns: u64) -> u64 { t_ns }
                fn f(&self, d_us: u64) -> u64 { self.at(d_us) }
            }";
        let d = run(src);
        assert!(has(&d, "unit-mismatch", "passes `us` to `t_ns`"), "{d:?}");
    }

    #[test]
    fn wrapping_wrong_unit_in_newtype_ctor_is_flagged() {
        let d = run("fn f(delay_us: u64) -> u64 { let t = Ns(delay_us); t.as_nanos() }");
        assert!(
            has(&d, "unit-mismatch", "wraps a `us` value in `Ns`"),
            "{d:?}"
        );
        let d = run("fn f(t_ns: u64) -> u64 { Ns(t_ns).as_nanos() }");
        assert!(d.is_empty(), "{d:?}");
        let d = run("fn f(t_us: u64) -> u64 { Ns(t_us * 1_000).as_nanos() }");
        assert!(!has(&d, "unit-mismatch", "wraps"), "{d:?}");
    }

    #[test]
    fn rate_times_volume_is_flagged() {
        let d = run("fn f(r_bps: u64, n_bytes: u64) -> u64 { r_bps * n_bytes }");
        assert!(
            has(&d, "unit-mismatch", "multiplies `bps` by `bytes`"),
            "{d:?}"
        );
    }

    #[test]
    fn compound_assign_mismatch_is_flagged() {
        let d = run("fn f(mut acc_ns: u64, d_us: u64) -> u64 { acc_ns += d_us; acc_ns }");
        assert!(has(&d, "unit-mismatch", "adds `ns` and `us`"), "{d:?}");
    }

    #[test]
    fn preserve_methods_keep_the_dimension() {
        let d = run("fn f(a_ns: u64, b_us: u64) -> u64 { a_ns.max(7) + b_us }");
        assert!(has(&d, "unit-mismatch", "adds `ns` and `us`"), "{d:?}");
    }

    #[test]
    fn generics_and_shifts_do_not_flag() {
        let d = run("fn f(x_ns: u64, v: Vec<u64>) -> u64 { let y: Vec<u64> = v; x_ns << 2; x_ns }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn converter_bodies_do_not_self_flag() {
        // Params named like the unit words but without the underscore
        // are conversion inputs, not unit-bearing values.
        let d = run("fn from_micros(us: u64) -> u64 { us * 1_000 }");
        // `from_micros` has no `_ns`-style suffix, `us` has no
        // underscore prefix match — nothing is typed, nothing flags.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_functions_are_skipped() {
        let src = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let a_ns = 1; let b_us = 2; let _ = a_ns + b_us; }
            }";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn relaxed_crates_are_skipped() {
        let src = "fn f(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }";
        let cfg = Config {
            relaxed: vec!["crates/t".to_string()],
            ..Config::default()
        };
        let d = run_cfg(src, &cfg);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn modulo_keeps_unit_and_stays_clean() {
        let d = run("fn f(t_ns: u64, iv_ns: u64) -> u64 { t_ns % iv_ns + iv_ns }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stats_count_typed_functions() {
        let lexed =
            lex("fn f(a_ns: u64) -> u64 { let b_ns = a_ns + 1; b_ns }\nfn g(x: u64) -> u64 { x }");
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        let (_, stats) = unit_pass(&graph, &tokens, &Config::default());
        assert_eq!(stats.fns_typed, 1);
        assert!(stats.dimension_facts >= 2, "{stats:?}");
    }
}
