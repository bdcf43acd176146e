//! LP-partition escape analysis: the ownership contract for the PDES
//! refactor, machine-checked.
//!
//! The parallel engine (ROADMAP item 2) splits `RackSim` into per-rack
//! logical processes. That only works if every piece of state is either
//! *private to one LP* or *explicitly shared through a synchronized
//! handle* — an innocent `Rc<RefCell<…>>` tucked into per-LP state is a
//! data race the moment two LPs run on two threads. `[lp]` in
//! `simlint.toml` declares the intended partition of the state struct's
//! fields (`per_lp` / `shared`) and the LP entry points (`roots`); this
//! pass checks the declaration against the code:
//!
//! * the partition must be **total** — every field of the state struct
//!   is classified (`lp-field-unmapped`), and every classified field
//!   still exists (`pdes-config-missing`);
//! * a `per_lp` field must not **escape** — neither by *shape* (its
//!   type mentions `Arc`/`Rc`/`Mutex`/`RwLock`/`RefCell`/`Cell`, i.e. a
//!   shareable or interior-mutable handle living inside supposedly
//!   private state) nor by *reach* (methods touching the field are
//!   reachable from more than one declared LP root) — both are
//!   `lp-escape`;
//! * the pass emits a machine-readable **partition report** (one JSON
//!   object per field: class, type, accessor count, reaching roots)
//!   that DESIGN.md carries as the PDES contract and `--lp-report`
//!   regenerates.
//!
//! Field accesses are found token-wise (`self . <field>` inside methods
//! of the state type); reachability is BFS over the call graph from
//! each root ([`CallGraph::search`]). Both are conservative in the
//! usual simlint direction: unknown receivers resolve to nothing, so a
//! finding is always backed by a concrete chain.

use crate::body::{matching, punct_at};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{CallGraph, Search};
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Scan-size counters for the bench artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct LpStats {
    /// Fields of the LP state struct audited against the `[lp]` map.
    pub fields_checked: usize,
}

/// Type idents that make a *per-LP* field an escape hatch by shape.
const SHARED_HANDLES: [&str; 6] = ["Arc", "Rc", "Mutex", "RwLock", "RefCell", "Cell"];

#[derive(Debug)]
struct Field {
    name: String,
    /// Type tokens, for exact-ident matching (`SharedTelemetry` must
    /// not match `Shared`).
    ty: Vec<String>,
    file: String,
    line: u32,
    col: u32,
}

/// Parses the fields of the first `struct <state> { … }` in a token
/// stream: each `name: Type` entry at the body's top level, the type
/// running to the next top-level comma.
fn parse_fields(toks: &[Tok], state: &str, file: &str, out: &mut Vec<Field>) {
    let Some(s) =
        (1..toks.len()).find(|&i| toks[i - 1].is_ident("struct") && toks[i].is_ident(state))
    else {
        return;
    };
    // A `;` before the body brace is a tuple or unit struct — nothing to
    // partition.
    let Some(open) = (s..toks.len()).find(|&k| toks[k].is_punct('{') || toks[k].is_punct(';'))
    else {
        return;
    };
    let Some(close) = matching(toks, open) else {
        return;
    };
    let mut depth = 0i64;
    let mut field: Option<Field> = None;
    for k in open + 1..close {
        let t = &toks[k];
        if depth == 0 && t.is_punct(',') {
            out.extend(field.take());
            continue;
        }
        if let Some(f) = field.as_mut() {
            f.ty.push(t.text.clone());
        } else if depth == 0 && t.is_punct(':') && !punct_at(toks, k + 1, ':') {
            let name = &toks[k - 1];
            if name.kind == TokKind::Ident && !name.is_ident("pub") {
                field = Some(Field {
                    name: name.text.clone(),
                    ty: Vec::new(),
                    file: file.to_string(),
                    line: name.line,
                    col: name.col,
                });
            }
        }
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('}')
            || t.is_punct(')')
            || t.is_punct(']')
            || (t.is_punct('>') && !punct_at(toks, k - 1, '-'))
        {
            depth -= 1;
        }
    }
    out.extend(field);
}

/// The first of a root's searches that discovered node `a`.
fn reached_by(searches: &[Search], a: usize) -> Option<&Search> {
    searches.iter().find(|s| s.reached(a))
}

/// Runs the partition audit. Returns diagnostics, counters, and — when
/// `[lp] state` is configured and found — the JSON partition report.
pub fn lp_pass(
    graph: &CallGraph,
    tokens: &BTreeMap<String, Vec<Tok>>,
    cfg: &Config,
) -> (Vec<Diagnostic>, LpStats, Option<String>) {
    let mut out = Vec::new();
    let mut stats = LpStats::default();
    let Some(state) = cfg.lp_state.as_deref() else {
        return (out, stats, None);
    };

    let mut fields: Vec<Field> = Vec::new();
    for (file, toks) in tokens {
        parse_fields(toks, state, file, &mut fields);
    }
    if fields.is_empty() {
        out.push(Diagnostic::new(
            "simlint.toml",
            1,
            1,
            "pdes-config-missing",
            format!("configured LP state struct `{state}` was not found in any scanned file"),
            "a rename silently disables the partition audit — update [lp] state",
        ));
        return (out, stats, None);
    }
    stats.fields_checked = fields.len();
    let field_names: BTreeSet<&str> = fields.iter().map(|f| f.name.as_str()).collect();
    for declared in cfg.lp_per_lp.iter().chain(&cfg.lp_shared) {
        if !field_names.contains(declared.as_str()) {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "pdes-config-missing",
                format!("[lp] classifies field `{declared}` which `{state}` no longer has"),
                "the field was removed or renamed — update [lp] per_lp/shared",
            ));
        }
    }
    for f in &fields {
        let per = cfg.lp_per_lp.iter().any(|n| n == &f.name);
        let shared = cfg.lp_shared.iter().any(|n| n == &f.name);
        if per && shared {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "pdes-config-missing",
                format!(
                    "field `{}` of `{state}` is declared both per_lp and shared",
                    f.name
                ),
                "pick one: a field is private to an LP or it is shared",
            ));
        } else if !per && !shared {
            out.push(Diagnostic::new(
                &f.file,
                f.line,
                f.col,
                "lp-field-unmapped",
                format!(
                    "field `{}` of LP state `{state}` is not classified in [lp]",
                    f.name
                ),
                "the PDES partition must be total — add the field to [lp] per_lp (private \
                 to one logical process) or shared (explicitly synchronized)",
            ));
        }
    }

    // Accessors: methods of the state type whose body mentions
    // `self . <field>`.
    let mut accessors: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.def.self_ty.as_deref() != Some(state) {
            continue;
        }
        let Some(toks) = tokens.get(&node.file) else {
            continue;
        };
        let (bs, be) = node.def.body_range;
        let body = &toks[bs.min(toks.len())..be.min(toks.len())];
        for w in body.windows(3) {
            if w[0].is_ident("self") && w[1].is_punct('.') && w[2].kind == TokKind::Ident {
                if let Some(name) = field_names.get(w[2].text.as_str()) {
                    let v = accessors.entry(name).or_default();
                    if v.last() != Some(&ni) {
                        v.push(ni);
                    }
                }
            }
        }
    }

    // Roots and their reachable sets: one search per node of the root
    // (several same-named nodes — trait impls — form one root).
    let mut roots: Vec<(String, Vec<Search>)> = Vec::new();
    for root in &cfg.lp_roots {
        let nodes = graph.find_qualified(root);
        if nodes.is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "pdes-config-missing",
                format!("configured LP root `{root}` was not found in any scanned file"),
                "a rename silently disables escape checking — update [lp] roots",
            ));
            continue;
        }
        let searches = nodes
            .iter()
            .map(|&n| graph.search(n, |_| true, |_| false))
            .collect();
        roots.push((root.clone(), searches));
    }

    // Escape checks + report rows, in struct order.
    let mut report = format!(
        "{{\"state\":\"{state}\",\"roots\":[{}],\"fields\":[",
        cfg.lp_roots
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (fi, f) in fields.iter().enumerate() {
        let per = cfg.lp_per_lp.iter().any(|n| n == &f.name);
        let shared = cfg.lp_shared.iter().any(|n| n == &f.name);
        let class = if per && !shared {
            "per_lp"
        } else if shared && !per {
            "shared"
        } else {
            "unmapped"
        };
        let accs = accessors.get(f.name.as_str()).cloned().unwrap_or_default();
        let reaching: Vec<&(String, Vec<Search>)> = roots
            .iter()
            .filter(|(_, searches)| accs.iter().any(|&a| reached_by(searches, a).is_some()))
            .collect();
        if per {
            if let Some(handle) = f.ty.iter().find(|t| SHARED_HANDLES.contains(&t.as_str())) {
                out.push(Diagnostic::new(
                    &f.file,
                    f.line,
                    f.col,
                    "lp-escape",
                    format!(
                        "per-LP field `{}` of `{state}` holds `{handle}` — a shareable or \
                         interior-mutable handle inside supposedly private state can alias \
                         across logical processes",
                        f.name
                    ),
                    "move the field to [lp] shared behind an explicit synchronization \
                     boundary, or replace the handle with owned per-LP data",
                ));
            }
            if reaching.len() > 1 {
                let mut chain = Vec::new();
                for (root, searches) in reaching.iter().take(2) {
                    let hit = accs
                        .iter()
                        .find_map(|&a| reached_by(searches, a).map(|s| (s, a)));
                    if let Some((search, a)) = hit {
                        chain.push(format!("reached from LP root `{root}`:"));
                        chain.extend(graph.render_path(search, a));
                    }
                }
                out.push(
                    Diagnostic::new(
                        &f.file,
                        f.line,
                        f.col,
                        "lp-escape",
                        format!(
                            "per-LP field `{}` of `{state}` is reachable from {} declared \
                             LP roots ({})",
                            f.name,
                            reaching.len(),
                            reaching
                                .iter()
                                .map(|(r, _)| format!("`{r}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                        "state touched by more than one logical process must be declared \
                         shared and synchronized, or the access factored out of all but \
                         one LP",
                    )
                    .with_chain(chain),
                );
            }
        }
        if fi > 0 {
            report.push(',');
        }
        report.push_str(&format!(
            "{{\"name\":\"{}\",\"class\":\"{class}\",\"type\":\"{}\",\"accessor_fns\":{},\
             \"roots_reaching\":{}}}",
            f.name,
            f.ty.join(" "),
            accs.len(),
            reaching.len()
        ));
    }
    let per_n = fields
        .iter()
        .filter(|f| cfg.lp_per_lp.iter().any(|n| n == &f.name))
        .count();
    let shared_n = fields
        .iter()
        .filter(|f| cfg.lp_shared.iter().any(|n| n == &f.name))
        .count();
    report.push_str(&format!(
        "],\"per_lp\":{per_n},\"shared\":{shared_n},\"unmapped\":{}}}",
        fields.len() - per_n - shared_n
    ));
    (out, stats, Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run_cfg(src: &str, cfg: &Config) -> (Vec<Diagnostic>, LpStats, Option<String>) {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        lp_pass(&graph, &tokens, cfg)
    }

    fn cfg(per: &[&str], shared: &[&str], roots: &[&str]) -> Config {
        Config {
            lp_state: Some("Sim".to_string()),
            lp_per_lp: per.iter().map(|s| (*s).to_string()).collect(),
            lp_shared: shared.iter().map(|s| (*s).to_string()).collect(),
            lp_roots: roots.iter().map(|s| (*s).to_string()).collect(),
            ..Config::default()
        }
    }

    const SIM: &str = "pub struct Sim { q: Queue<Ev>, hosts: Vec<Host>, hub: Option<Hub> }\n";

    #[test]
    fn total_partition_is_clean_and_counted() {
        let (d, stats, report) = run_cfg(SIM, &cfg(&["q", "hosts"], &["hub"], &[]));
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(stats.fields_checked, 3);
        let r = report.unwrap();
        assert!(
            r.contains("\"per_lp\":2,\"shared\":1,\"unmapped\":0"),
            "{r}"
        );
        assert!(r.contains("\"name\":\"q\",\"class\":\"per_lp\""), "{r}");
    }

    #[test]
    fn unmapped_field_is_flagged() {
        let (d, _, _) = run_cfg(SIM, &cfg(&["q", "hosts"], &[], &[]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lp-field-unmapped");
        assert!(d[0].message.contains("`hub`"), "{}", d[0].message);
    }

    #[test]
    fn vanished_field_is_guarded() {
        let (d, _, _) = run_cfg(SIM, &cfg(&["q", "hosts", "rng"], &["hub"], &[]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pdes-config-missing");
        assert!(d[0].message.contains("`rng`"), "{}", d[0].message);
    }

    #[test]
    fn shared_handle_in_per_lp_field_escapes() {
        let src = "pub struct Sim { stats: Arc<Mutex<Stats>>, q: Queue }\n";
        let (d, _, _) = run_cfg(src, &cfg(&["stats", "q"], &[], &[]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lp-escape");
        assert!(d[0].message.contains("Arc"), "{}", d[0].message);
    }

    #[test]
    fn shared_prefix_of_type_name_is_not_a_handle() {
        let src = "pub struct Sim { hub: SharedTelemetry }\n";
        let (d, _, _) = run_cfg(src, &cfg(&["hub"], &[], &[]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn field_reached_from_two_roots_escapes_with_chains() {
        let src = "pub struct Sim { counter: u64 }\n\
             impl Sim {\n\
               pub fn step_a(&mut self) { self.bump(); }\n\
               pub fn step_b(&mut self) { self.bump(); }\n\
               fn bump(&mut self) { self.counter += 1; }\n\
             }";
        let (d, _, report) = run_cfg(
            src,
            &cfg(&["counter"], &[], &["Sim::step_a", "Sim::step_b"]),
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lp-escape");
        assert!(
            d[0].message.contains("2 declared LP roots"),
            "{}",
            d[0].message
        );
        assert!(
            d[0].chain.iter().any(|c| c.contains("Sim::bump")),
            "{:?}",
            d[0].chain
        );
        assert!(report.unwrap().contains("\"roots_reaching\":2"));
    }

    #[test]
    fn field_owned_by_one_root_is_clean() {
        let src = "pub struct Sim { counter: u64 }\n\
             impl Sim {\n\
               pub fn step_a(&mut self) { self.counter += 1; }\n\
               pub fn step_b(&mut self) { }\n\
             }";
        let (d, _, _) = run_cfg(
            src,
            &cfg(&["counter"], &[], &["Sim::step_a", "Sim::step_b"]),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_state_and_root_are_guarded() {
        let (d, _, report) = run_cfg("fn f() {}", &cfg(&[], &[], &[]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pdes-config-missing");
        assert!(report.is_none());
        let (d, _, _) = run_cfg(SIM, &cfg(&["q", "hosts"], &["hub"], &["Sim::gone"]));
        assert!(
            d.iter().any(|d| d.message.contains("LP root `Sim::gone`")),
            "{d:?}"
        );
    }
}
