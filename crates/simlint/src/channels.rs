//! Channel discipline: every channel in the workspace is declared, and
//! its declared shape is the shape the code actually uses.
//!
//! The PDES engine (ROADMAP item 2) synchronizes logical processes over
//! *bounded SPSC* channels — one producer per link, lookahead encoded
//! in the message order. The classic ways that design rots are all
//! invisible to the type system once `mpsc::Sender` is in play: a
//! cloned sender quietly turns SPSC into MPSC (ordering and capacity
//! assumptions break), a blocking `recv` creeps into a hot path, a
//! sender outlives its `drop`. This pass models endpoint creation,
//! clone, send, recv, and drop over the call graph:
//!
//! * every locally-created channel must be **declared** in `[channels]`
//!   (`undeclared-channel`) — the declaration is the reviewed contract
//!   (`"<name> <tx> <rx> <spsc|mpsc>"`);
//! * cloning the sender of a declared-SPSC channel is flagged
//!   (`spsc-multi-producer`);
//! * a blocking `recv` reachable from a `[hotpath]` root is flagged
//!   (`channel-recv-hot`) — *even in functions exempted via
//!   `may_block`*, because a park on a channel is a scheduling
//!   dependency, not just a latency hazard; `[channels] may_recv`
//!   exempts designated consumer functions;
//! * sending on an endpoint after `drop(tx)` in the same function is
//!   flagged (`send-after-drop`).
//!
//! Endpoint identities reuse the lock pass's qualifier: a tuple binding
//! `let (tx, rx) = mpsc::channel()` in `run_fleet` yields
//! `run_fleet::tx` / `run_fleet::rx`; a field endpoint `self.tx` inside
//! `impl Pipe` yields `Pipe::tx`.

use crate::body::{Let, Pass, Walker};
use crate::config::{ChannelDecl, Config};
use crate::diag::Diagnostic;
use crate::graph::{CallGraph, FnNode};
use crate::lexer::Tok;
use crate::locks::qualify;
use crate::parser::CallKind;
use std::collections::{BTreeMap, BTreeSet};

/// Scan-size counters for the bench artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChannelStats {
    /// Distinct endpoint identities observed (created or used).
    pub endpoints: usize,
}

#[derive(Debug, Clone)]
struct Site {
    file: String,
    line: u32,
    col: u32,
    in_fn: String,
}

#[derive(Debug, Clone)]
struct Creation {
    tx: String,
    rx: String,
    site: Site,
}

/// The channel pass's side of the shared [`Walker`]: records every
/// `let (tx, rx) = …channel…;` tuple binding of one body.
struct Creations<'a> {
    node: &'a FnNode,
    found: Vec<Creation>,
}

impl Pass for Creations<'_> {
    type Val = ();

    fn bind(
        w: &mut Walker<'_, Self>,
        l: &Let,
        rhs: (usize, usize),
        _end: usize,
    ) -> (Option<()>, usize) {
        let toks = w.toks;
        let is_channel = |t: &Tok| t.is_ident("channel") || t.is_ident("sync_channel");
        if let &[a, b] = &l.names[..] {
            if toks[rhs.0..rhs.1].iter().any(is_channel) {
                let q = w.pass.node.qualified();
                w.pass.found.push(Creation {
                    tx: format!("{q}::{}", toks[a].text),
                    rx: format!("{q}::{}", toks[b].text),
                    site: Site {
                        file: w.pass.node.file.clone(),
                        line: toks[a].line,
                        col: toks[a].col,
                        in_fn: q,
                    },
                });
            }
        }
        (None, rhs.0)
    }

    fn step(_: &mut Walker<'_, Self>, i: usize, _end: usize) -> usize {
        i + 1
    }
}

/// Runs the pass over the whole graph. Unlike the determinism rules
/// this is *not* relaxed for bench crates — a channel in a harness is
/// real concurrency — but test code is skipped.
pub fn channel_pass(
    graph: &CallGraph,
    tokens: &BTreeMap<String, Vec<Tok>>,
    cfg: &Config,
) -> (Vec<Diagnostic>, ChannelStats) {
    let mut out = Vec::new();
    let decl_tx: BTreeMap<&str, &ChannelDecl> =
        cfg.channels.iter().map(|c| (c.tx.as_str(), c)).collect();
    let decl_rx: BTreeMap<&str, &ChannelDecl> =
        cfg.channels.iter().map(|c| (c.rx.as_str(), c)).collect();

    let mut creations: Vec<Creation> = Vec::new();
    let mut clones: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut sends: BTreeMap<String, Vec<(usize, Site)>> = BTreeMap::new();
    let mut recvs: Vec<(String, usize, Site)> = Vec::new(); // blocking recv only
    let mut drops: BTreeMap<(usize, String), (u32, u32)> = BTreeMap::new();
    let mut observed: BTreeSet<String> = BTreeSet::new();

    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.def.in_cfg_test || node.file.contains("tests/") {
            continue;
        }
        let mut local_tx = BTreeSet::new();
        let mut local_rx = BTreeSet::new();
        if let Some(toks) = tokens.get(&node.file) {
            let (bs, be) = node.def.body_range;
            let mut w = Walker::new(
                toks,
                Creations {
                    node,
                    found: Vec::new(),
                },
            );
            w.walk(bs, be.min(toks.len()));
            let created = w.pass.found;
            for c in &created {
                local_tx.insert(c.tx.clone());
                local_rx.insert(c.rx.clone());
                observed.insert(c.tx.clone());
                observed.insert(c.rx.clone());
            }
            creations.extend(created);
        }
        let known_tx = |id: &str| decl_tx.contains_key(id) || local_tx.contains(id);
        let known_rx = |id: &str| decl_rx.contains_key(id) || local_rx.contains(id);
        let site = |line: u32, col: u32| Site {
            file: node.file.clone(),
            line,
            col,
            in_fn: node.qualified(),
        };
        for edge in &node.calls {
            let s = &edge.site;
            match (&s.kind, s.name.as_str()) {
                (CallKind::Method { recv }, "send" | "try_send") => {
                    if let Some(id) = qualify(recv, node).filter(|id| known_tx(id)) {
                        observed.insert(id.clone());
                        sends.entry(id).or_default().push((ni, site(s.line, s.col)));
                    }
                }
                (CallKind::Method { recv }, "recv") => {
                    if let Some(id) = qualify(recv, node).filter(|id| known_rx(id)) {
                        observed.insert(id.clone());
                        recvs.push((id, ni, site(s.line, s.col)));
                    }
                }
                (CallKind::Method { recv }, "try_recv" | "recv_timeout") => {
                    if let Some(id) = qualify(recv, node).filter(|id| known_rx(id)) {
                        observed.insert(id);
                    }
                }
                (CallKind::Method { recv }, "clone") => {
                    if let Some(id) = qualify(recv, node).filter(|id| known_tx(id)) {
                        observed.insert(id.clone());
                        clones.entry(id).or_default().push(site(s.line, s.col));
                    }
                }
                (CallKind::Free, "drop") => {
                    if let Some(id) = s.arg0.as_deref().and_then(|a| qualify(a, node)) {
                        if known_tx(&id) {
                            drops.entry((ni, id)).or_insert((s.line, s.col));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Every created channel must be declared.
    for c in &creations {
        if !decl_tx.contains_key(c.tx.as_str()) {
            out.push(Diagnostic::new(
                &c.site.file,
                c.site.line,
                c.site.col,
                "undeclared-channel",
                format!(
                    "channel endpoints `{}` / `{}` are created in `{}` but not \
                         declared in [channels]",
                    c.tx, c.rx, c.site.in_fn
                ),
                format!(
                    "declare `\"<name> {} {} spsc|mpsc\"` in simlint.toml [channels] so \
                         producer counts, hot-path receives, and wait cycles are policed",
                    c.tx, c.rx
                ),
            ));
        }
    }

    // Declared-SPSC senders must never be cloned.
    for decl in &cfg.channels {
        if decl.multi {
            continue;
        }
        if let Some(sites) = clones.get(&decl.tx) {
            let s = &sites[0];
            let mut chain = Vec::new();
            if let Some(c) = creations.iter().find(|c| c.tx == decl.tx) {
                chain.push(format!(
                    "`{}` created in `{}` ({}:{})",
                    decl.tx, c.site.in_fn, c.site.file, c.site.line
                ));
            }
            chain.push(format!(
                "sender cloned in `{}` ({}:{})",
                s.in_fn, s.file, s.line
            ));
            out.push(
                Diagnostic::new(
                    &s.file,
                    s.line,
                    s.col,
                    "spsc-multi-producer",
                    format!(
                        "sender `{}` of declared-SPSC channel `{}` is cloned — a second \
                         producer breaks SPSC ordering and capacity assumptions",
                        decl.tx, decl.name
                    ),
                    "declare the channel mpsc if multiple producers are intended, or keep a \
                     single sender and fan work in before the channel",
                )
                .with_chain(chain),
            );
        }
    }

    // Send after drop in the same function, by source order.
    for ((ni, id), (dline, dcol)) in &drops {
        for (sni, s) in sends.get(id).into_iter().flatten() {
            if sni == ni && (s.line, s.col) > (*dline, *dcol) {
                out.push(Diagnostic::new(
                    &s.file,
                    s.line,
                    s.col,
                    "send-after-drop",
                    format!(
                        "`{}` sends in `{}` after `drop` released the sender at line \
                         {dline} — the send can only fail",
                        id, s.in_fn
                    ),
                    "drop the sender only once every producer is done (after the spawn \
                     loop, not before the sends)",
                ));
            }
        }
    }

    // Blocking recv reachable from a hot-path root.
    for (id, ni, s) in &recvs {
        if cfg.may_recv.iter().any(|f| f == &s.in_fn) {
            continue;
        }
        let chan = decl_rx
            .get(id.as_str())
            .map_or_else(|| id.clone(), |d| d.name.clone());
        for root in &cfg.hot_functions {
            for &r in graph.find_qualified(root) {
                let search = graph.search(r, |_| true, |n| n == *ni);
                if let Some(hit) = search.hit {
                    let mut path = graph.render_path(&search, hit);
                    path.push(format!("blocking `recv` on `{id}` ({}:{})", s.file, s.line));
                    out.push(
                        Diagnostic::new(
                            &s.file,
                            s.line,
                            s.col,
                            "channel-recv-hot",
                            format!(
                                "blocking `recv` on channel `{chan}` is reachable from \
                                 hot-path root `{root}`"
                            ),
                            "hot paths must not park on a channel — drain with `try_recv`, \
                             or add the consumer to [channels] may_recv with justification",
                        )
                        .with_chain(path),
                    );
                    break; // one finding per (recv, root)
                }
            }
        }
    }

    // Declared channels must still match something.
    for decl in &cfg.channels {
        if !observed.contains(&decl.tx) && !observed.contains(&decl.rx) {
            out.push(Diagnostic::new(
                "simlint.toml",
                decl.line,
                1,
                "pdes-config-missing",
                format!(
                    "declared channel `{}` (`{}` / `{}`) matched no creation or use site",
                    decl.name, decl.tx, decl.rx
                ),
                "the endpoints moved or were renamed — update [channels] so the declaration \
                 keeps policing the real channel",
            ));
        }
    }

    let stats = ChannelStats {
        endpoints: observed.len(),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run_cfg(src: &str, cfg: &Config) -> (Vec<Diagnostic>, ChannelStats) {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        channel_pass(&graph, &tokens, cfg)
    }

    fn decl(name: &str, tx: &str, rx: &str, multi: bool) -> ChannelDecl {
        ChannelDecl {
            name: name.to_string(),
            tx: tx.to_string(),
            rx: rx.to_string(),
            multi,
            line: 7,
        }
    }

    #[test]
    fn undeclared_channel_is_flagged() {
        let (d, stats) = run_cfg(
            "fn run() { let (tx, rx) = mpsc::channel::<u64>(); tx.send(1); }",
            &Config::default(),
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "undeclared-channel");
        assert!(d[0].message.contains("run::tx"), "{}", d[0].message);
        assert_eq!(stats.endpoints, 2);
    }

    #[test]
    fn declared_mpsc_with_clones_is_clean() {
        let cfg = Config {
            channels: vec![decl("results", "run::tx", "run::rx", true)],
            ..Config::default()
        };
        let (d, _) = run_cfg(
            "fn run() { let (tx, rx) = mpsc::channel::<u64>(); \
             { let tx = tx.clone(); tx.send(1); } drop(tx); }",
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn spsc_clone_is_flagged() {
        let cfg = Config {
            channels: vec![decl("link", "run::tx", "run::rx", false)],
            ..Config::default()
        };
        let (d, _) = run_cfg(
            "fn run() { let (tx, rx) = mpsc::sync_channel::<u64>(4); \
             let tx2 = tx.clone(); tx2.send(1); }",
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "spsc-multi-producer");
        assert!(d[0].chain.iter().any(|c| c.contains("created")), "{d:?}");
    }

    #[test]
    fn send_after_drop_is_flagged() {
        let cfg = Config {
            channels: vec![decl("c", "run::tx", "run::rx", true)],
            ..Config::default()
        };
        let (d, _) = run_cfg(
            "fn run() { let (tx, rx) = mpsc::channel::<u64>(); drop(tx); tx.send(1); }",
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "send-after-drop");
    }

    #[test]
    fn sends_before_drop_are_clean() {
        let cfg = Config {
            channels: vec![decl("c", "run::tx", "run::rx", true)],
            ..Config::default()
        };
        let (d, _) = run_cfg(
            "fn run() { let (tx, rx) = mpsc::channel::<u64>(); tx.send(1); drop(tx); }",
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_reachable_recv_is_flagged_and_may_recv_exempts() {
        let src = "impl Pipe { \
             fn poll(&mut self) { self.pump(); } \
             fn pump(&mut self) { let v = self.rx.recv(); } }";
        let cfg = Config {
            channels: vec![decl("pipe", "Pipe::tx", "Pipe::rx", false)],
            hot_functions: vec!["Pipe::poll".to_string()],
            ..Config::default()
        };
        let (d, _) = run_cfg(src, &cfg);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "channel-recv-hot").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert!(hits[0].chain.len() >= 3, "{:?}", hits[0].chain);
        let cfg = Config {
            may_recv: vec!["Pipe::pump".to_string()],
            ..cfg
        };
        let (d, _) = run_cfg(src, &cfg);
        assert!(!d.iter().any(|d| d.rule == "channel-recv-hot"), "{d:?}");
    }

    #[test]
    fn stale_declaration_is_guarded() {
        let cfg = Config {
            channels: vec![decl("gone", "old::tx", "old::rx", true)],
            ..Config::default()
        };
        let (d, _) = run_cfg("fn run() {}", &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pdes-config-missing");
    }

    #[test]
    fn test_code_channels_are_skipped() {
        let (d, _) = run_cfg(
            "#[cfg(test)] mod t { fn run() { let (tx, rx) = mpsc::channel::<u64>(); } }",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
