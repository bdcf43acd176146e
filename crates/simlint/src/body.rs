//! The one body walker the token-level passes share, and the bracket
//! navigation under it.
//!
//! The [`crate::parser`] statement tree keeps call sites and block
//! structure but drops operators and literals, so the passes that
//! reason about *values* — units ([`crate::unitflow`]), timestamp
//! provenance ([`crate::monotonic`]) and channel creation
//! ([`crate::channels`]) — walk a function's raw token range
//! ([`crate::parser::FnDef::body_range`]) instead. Each of these
//! decisions lives here and nowhere else:
//!
//! * **how a `let` is recognized** — [`let_at`] handles
//!   `let [mut] x [: Ty] = rhs;`, the 2-tuple
//!   `let ([mut] a, [mut] b) [: Ty] = rhs;`, and any other pattern,
//!   which binds nothing. The parser's `Stmt::let_name` uses it too;
//! * **how a body is walked** — [`Walker::walk`] goes through the body
//!   in source order, blocks and closure bodies included (the binding
//!   environment is flat, so braces need no scope), skips nested `fn`
//!   items (they are call-graph nodes of their own), and keeps one
//!   binding environment per function. A [`Pass`] supplies only its
//!   value type and what to do at a binding and at any other token;
//! * **how brackets and arguments are matched** — [`matching`],
//!   [`stmt_end`] and [`split_args`].

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// The identifier at `i`, if that token is one.
pub fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Whether the token at `i` is the punctuation character `c`.
pub fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Index of the token closing the bracket opened at `open` (`(`, `[` or
/// `{`), or `None` when `toks[open]` opens nothing or never closes.
pub fn matching(toks: &[Tok], open: usize) -> Option<usize> {
    let (op, cl) = match toks.get(open)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(op) {
            depth += 1;
        } else if t.is_punct(cl) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Skips a balanced `<…>` starting at `open`, returning the index after
/// it. `->` arrows do not count as closing angles.
pub fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

fn opens(t: &Tok) -> bool {
    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
}

fn closes(t: &Tok) -> bool {
    t.is_punct(')') || t.is_punct(']') || t.is_punct('}')
}

/// Index just past the statement starting at `i`: past its top-level
/// `;`, or at the unbalanced closer (or `limit`) that ends the
/// enclosing range first.
pub fn stmt_end(toks: &[Tok], i: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(limit).skip(i) {
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if t.is_punct(';') && depth == 0 {
            return k + 1;
        }
    }
    limit
}

/// The top-level comma-separated segments `[start, end)` between the
/// bracket at `open` and its closer at `close` (both excluded). An
/// empty list yields one empty segment.
pub fn split_args(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut segs = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            segs.push((start, k));
            start = k + 1;
        }
    }
    segs.push((start, close.max(start)));
    segs
}

/// A `let` statement as [`let_at`] recognizes it.
#[derive(Debug)]
pub struct Let<'t> {
    /// Token indices of the bound names: one for `let [mut] x`, two for
    /// `let ([mut] a, [mut] b)`, none for any other pattern
    /// (`let Some(x)`, `let Ev::A(t)`, wider tuples).
    pub names: Vec<usize>,
    /// Identifiers of the type annotation in order (`["Ns"]`,
    /// `["Sender", "u64", "Receiver", "u64"]`), empty when unannotated.
    pub annot: Vec<&'t str>,
    /// Token range `[start, end)` of the initializer without its `;`,
    /// `None` for a `let` that has none.
    pub rhs: Option<(usize, usize)>,
    /// Index just past the statement.
    pub end: usize,
}

impl Let<'_> {
    /// The name of a single-name `let`. Only such a binding carries a
    /// value: a destructured initializer cannot be attributed per
    /// element, so tuple and pattern lets bind nothing in a pass's
    /// environment (and no guard in the lock pass).
    pub fn single(&self) -> Option<usize> {
        match self.names[..] {
            [n] => Some(n),
            _ => None,
        }
    }
}

/// Recognizes the `let` at `toks[i]`, looking no further than `limit`.
pub fn let_at(toks: &[Tok], i: usize, limit: usize) -> Let<'_> {
    let punct = |k: usize, c: char| punct_at(toks, k, c);
    let name = |k: usize| {
        let k = k + usize::from(toks.get(k).is_some_and(|t| t.is_ident("mut")));
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Ident)
            .then_some(k)
    };
    // A name list ends at `=`, `;`, or a type annotation's `:` (not a
    // path's `::`).
    let ends = |k: usize| punct(k, '=') || punct(k, ';') || (punct(k, ':') && !punct(k + 1, ':'));
    let (names, after) = match name(i + 1) {
        Some(n) if ends(n + 1) => (vec![n], n + 1),
        _ => {
            let pair = punct(i + 1, '(')
                .then(|| name(i + 2))
                .flatten()
                .filter(|&a| punct(a + 1, ','))
                .and_then(|a| Some((a, name(a + 2)?)))
                .filter(|&(_, b)| punct(b + 1, ')') && ends(b + 2));
            match pair {
                Some((a, b)) => (vec![a, b], b + 2),
                None => (Vec::new(), i + 1),
            }
        }
    };
    // Find the initializer's `=` at bracket/angle depth 0, collecting
    // the annotation's idents on the way; `..=` in a range pattern is
    // not it.
    let typed = !names.is_empty() && punct(after, ':');
    let mut annot = Vec::new();
    let mut depth = 0i64;
    let mut k = after;
    while k < limit {
        let t = &toks[k];
        if opens(t) || t.is_punct('<') {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if t.is_punct('>') && !punct(k - 1, '-') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            k += 1;
            break;
        } else if depth == 0 && t.is_punct('=') && !punct(k - 1, '.') {
            let start = k + 1;
            let end = stmt_end(toks, start, limit);
            let rhs_end = end - usize::from(end > start && toks[end - 1].is_punct(';'));
            return Let {
                names,
                annot,
                rhs: Some((start, rhs_end)),
                end,
            };
        } else if typed && t.kind == TokKind::Ident {
            annot.push(t.text.as_str());
        }
        k += 1;
    }
    Let {
        names,
        annot,
        rhs: None,
        end: k,
    }
}

/// What a pass supplies to the shared [`Walker`].
pub trait Pass: Sized {
    /// The abstract value a binding carries in the environment.
    type Val: Clone;
    /// At a `let` whose initializer spans `rhs`: evaluates it and
    /// returns the value to bind (recorded only for a
    /// [`Let::single`] binding) and the index the walk resumes at.
    fn bind(
        w: &mut Walker<'_, Self>,
        l: &Let,
        rhs: (usize, usize),
        end: usize,
    ) -> (Option<Self::Val>, usize);
    /// At any other token that starts no block or nested `fn`: handles
    /// whatever site begins at `i` and returns the resume index.
    fn step(w: &mut Walker<'_, Self>, i: usize, end: usize) -> usize;
}

/// One function body's walk: the token stream, the flat binding
/// environment, and the pass riding along.
pub struct Walker<'t, P: Pass> {
    pub toks: &'t [Tok],
    /// Name → value, flat across the whole body: blocks do not scope it,
    /// and a later `let` of the same name overwrites the earlier one.
    /// Exact for straight-line `let` chains, conservative elsewhere.
    pub env: BTreeMap<String, P::Val>,
    pub pass: P,
}

impl<'t, P: Pass> Walker<'t, P> {
    pub fn new(toks: &'t [Tok], pass: P) -> Self {
        Walker {
            toks,
            env: BTreeMap::new(),
            pass,
        }
    }

    pub fn t(&self, i: usize) -> Option<&'t Tok> {
        self.toks.get(i)
    }

    pub fn is_punct(&self, i: usize, c: char) -> bool {
        punct_at(self.toks, i, c)
    }

    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        self.t(i).is_some_and(|t| t.is_ident(s))
    }

    /// Walks `[i, end)` in source order: a `let` goes to
    /// [`Pass::bind`] and its single name into the environment, a
    /// nested `fn` item is skipped, and every other token — braces of
    /// blocks and closures included — goes to [`Pass::step`].
    pub fn walk(&mut self, mut i: usize, end: usize) {
        let toks = self.toks;
        while i < end {
            let t = &toks[i];
            if t.is_ident("let") {
                let l = let_at(toks, i, end);
                i = match l.rhs {
                    Some(rhs) => {
                        let (val, next) = P::bind(self, &l, rhs, end);
                        if let (Some(val), Some(n)) = (val, l.single()) {
                            self.env.insert(toks[n].text.clone(), val);
                        }
                        next
                    }
                    None => l.end,
                };
            } else if t.is_ident("fn") && ident_at(toks, i + 1).is_some() {
                // A nested item: skip its signature and body.
                let j = (i + 1..end)
                    .find(|&j| toks[j].is_punct('{') || toks[j].is_punct(';'))
                    .unwrap_or(end);
                i = matching(toks, j).filter(|&c| c < end).unwrap_or(j) + 1;
            } else {
                i = P::step(self, i, end).max(i + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn texts<'a>(toks: &'a [Tok], idx: &[usize]) -> Vec<&'a str> {
        idx.iter().map(|&k| toks[k].text.as_str()).collect()
    }

    fn rhs_text(toks: &[Tok], l: &Let) -> String {
        let (s, e) = l.rhs.expect("initializer");
        toks[s..e]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn recognize(src: &str) -> (Vec<Tok>, Vec<usize>, Vec<String>, Option<String>) {
        let toks = lex(src).toks;
        let l = let_at(&toks, 0, toks.len());
        let names = l.names.clone();
        let annot = l.annot.iter().map(|s| (*s).to_string()).collect();
        let rhs = l.rhs.map(|_| rhs_text(&toks, &l));
        (toks, names, annot, rhs)
    }

    #[test]
    fn plain_and_mut_lets_bind_one_name() {
        let (toks, names, annot, rhs) = recognize("let at = now + d; next();");
        assert_eq!(texts(&toks, &names), ["at"]);
        assert!(annot.is_empty());
        assert_eq!(rhs.as_deref(), Some("now + d"));
        let (toks, names, _, rhs) = recognize("let mut g = m.lock();");
        assert_eq!(texts(&toks, &names), ["g"]);
        assert_eq!(rhs.as_deref(), Some("m . lock ( )"));
    }

    #[test]
    fn typed_let_yields_annotation_idents() {
        let (toks, names, annot, rhs) = recognize("let t: Ns = now - d;");
        assert_eq!(texts(&toks, &names), ["t"]);
        assert_eq!(annot, ["Ns"]);
        assert_eq!(rhs.as_deref(), Some("now - d"));
        // An `=` inside angle brackets belongs to the type.
        let (_, _, annot, rhs) = recognize("let it: Box<dyn Iterator<Item = u8>> = make();");
        assert_eq!(annot, ["Box", "dyn", "Iterator", "Item", "u8"]);
        assert_eq!(rhs.as_deref(), Some("make ( )"));
    }

    #[test]
    fn two_tuples_bind_both_names_with_optional_mut_and_type() {
        let (toks, names, annot, rhs) = recognize("let (tx, rx) = mpsc::channel();");
        assert_eq!(texts(&toks, &names), ["tx", "rx"]);
        assert!(annot.is_empty());
        assert_eq!(rhs.as_deref(), Some("mpsc : : channel ( )"));
        let (toks, names, _, _) = recognize("let (tx, mut rx) = mpsc::channel();");
        assert_eq!(texts(&toks, &names), ["tx", "rx"]);
        let (toks, names, annot, rhs) =
            recognize("let (tx, rx): (Sender<u64>, Receiver<u64>) = mpsc::channel();");
        assert_eq!(texts(&toks, &names), ["tx", "rx"]);
        assert_eq!(annot, ["Sender", "u64", "Receiver", "u64"]);
        assert_eq!(rhs.as_deref(), Some("mpsc : : channel ( )"));
    }

    #[test]
    fn pattern_lets_bind_nothing_but_keep_their_initializer() {
        let (_, names, _, rhs) = recognize("let Some(x) = it.next() else { return; };");
        assert!(names.is_empty());
        assert_eq!(rhs.as_deref(), Some("it . next ( ) else { return ; }"));
        let (_, names, _, rhs) = recognize("let Ev::Arrive(t) = ev else { return };");
        assert!(
            names.is_empty(),
            "a path pattern is not a binding named `Ev`"
        );
        assert!(rhs.is_some());
        let (_, names, _, _) = recognize("let (a, b, c) = triple;");
        assert!(names.is_empty());
    }

    #[test]
    fn let_without_initializer_ends_at_its_semicolon() {
        let toks = lex("let x: [u8; 4]; y();").toks;
        let l = let_at(&toks, 0, toks.len());
        assert_eq!(texts(&toks, &l.names), ["x"]);
        assert!(l.rhs.is_none());
        assert_eq!(toks[l.end].text, "y");
    }

    #[test]
    fn navigation_helpers_agree_on_nesting() {
        let toks = lex("f(a, g(b, c), [d, e]) ; x").toks;
        let close = matching(&toks, 1).unwrap();
        assert_eq!(toks[close + 1].text, ";");
        let segs = split_args(&toks, 1, close);
        let args: Vec<String> = segs
            .iter()
            .map(|&(s, e)| toks[s..e].iter().map(|t| t.text.as_str()).collect())
            .collect();
        assert_eq!(args, ["a", "g(b,c)", "[d,e]"]);
        assert_eq!(toks[stmt_end(&toks, 0, toks.len())].text, "x");
        assert_eq!(matching(&toks, 0), None, "an identifier opens nothing");
    }

    /// Records every binding and every step in walk order.
    struct Trace(Vec<String>);

    impl Pass for Trace {
        type Val = ();
        fn bind(
            w: &mut Walker<'_, Self>,
            l: &Let,
            rhs: (usize, usize),
            _end: usize,
        ) -> (Option<()>, usize) {
            let names: Vec<&str> = l.names.iter().map(|&n| w.toks[n].text.as_str()).collect();
            w.pass.0.push(format!("let {}", names.join(",")));
            (Some(()), rhs.0)
        }
        fn step(w: &mut Walker<'_, Self>, i: usize, _end: usize) -> usize {
            if w.t(i).is_some_and(|t| t.text == "site") {
                w.pass.0.push("site".to_string());
            }
            i + 1
        }
    }

    #[test]
    fn walker_enters_closures_skips_nested_fns_and_binds_single_names() {
        let toks = lex("let f = |q| { let at = 1; site(at); }; \
             fn inner() { let hidden = 2; site(); } \
             let (a, b) = pair; let Some(c) = o else { return };")
        .toks;
        let mut w = Walker::new(&toks, Trace(Vec::new()));
        w.walk(0, toks.len());
        assert_eq!(w.pass.0, ["let f", "let at", "site", "let a,b", "let "]);
        let bound: Vec<&str> = w.env.keys().map(String::as_str).collect();
        assert_eq!(bound, ["at", "f"]);
    }
}
