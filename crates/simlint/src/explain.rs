//! `simlint --explain <rule>`: the rationale and a worked example for
//! every rule the analyzer can emit.
//!
//! Diagnostics are terse by design (one line + hint); this registry is
//! where the *why* lives. Each entry pairs the reproducibility or
//! performance argument behind the rule with an example diagnostic in
//! the exact output format, so a developer hitting an unfamiliar rule
//! in CI can go from finding to fix without reading pass source. The
//! registry is also the canonical rule list: a unit test scans the
//! analyzer's own sources and fails if any pass emits a rule id that is
//! not documented here.

/// `(rule, rationale, example diagnostic)` for every rule, v1 through
/// v4, sorted by analyzer generation then roughly by pass.
pub const ALL_RULES: [(&str, &str, &str); 25] = [
    (
        "hash-collections",
        "HashMap/HashSet iteration order depends on RandomState's per-process seed, so any \
         simulation decision derived from iterating one differs run to run. Deterministic \
         replay — the property the whole reproduction rests on — needs BTreeMap/BTreeSet \
         (or order-free reductions) in simulation state.",
        "crates/dcsim/src/switch.rs:41:18: [hash-collections] `HashMap` in simulation state\n    \
         hint: use BTreeMap/BTreeSet for deterministic iteration order",
    ),
    (
        "wall-clock",
        "Instant/SystemTime reads smuggle the host's real clock into simulated time; results \
         then vary with machine load. All time must come from the event queue's virtual now.",
        "crates/workload/src/sim.rs:88:21: [wall-clock] `Instant::now` in simulation code\n    \
         hint: simulation time must come from the event queue, not the host clock",
    ),
    (
        "ambient-rng",
        "Seeding from entropy (thread_rng and friends) makes every run unique and bug reports \
         unreproducible. All randomness must flow from the run's configured seed.",
        "crates/workload/src/gen.rs:12:17: [ambient-rng] ambient RNG `thread_rng`\n    \
         hint: thread all randomness from the configured run seed",
    ),
    (
        "env-read",
        "std::env::var in simulation logic creates invisible configuration: two users with the \
         same TOML get different results. Configuration must be explicit in the config file.",
        "crates/workload/src/cfg.rs:30:9: [env-read] environment read `env::var`\n    \
         hint: make it an explicit config field instead",
    ),
    (
        "cast-truncation",
        "`as` silently truncates and wraps: a u64 nanosecond timestamp cast to u32 overflows \
         after ~4.3 simulated seconds, corrupting time without a panic. Narrowing conversions \
         must be checked (try_into) or justified at the site.",
        "crates/dcsim/src/engine.rs:77:30: [cast-truncation] `u64 as u32` may truncate\n    \
         hint: use try_into() or an explicit allow with the range argument",
    ),
    (
        "hot-path-panic",
        "A panic reachable from the per-event hot path turns a corner-case input into an abort \
         of a multi-hour run. unwrap/expect/indexing on the hot path must be proven infallible \
         or replaced with handled variants.",
        "crates/dcsim/src/engine.rs:102:31: [hot-path-panic] hot function `EventQueue::pop` may \
         panic via `.unwrap()`\n    \
         hint: handle the None/Err case or document why it cannot happen",
    ),
    (
        "hot-path-alloc",
        "Allocation on the per-event path (Vec::new, Box, format!) dominates runtime at the \
         paper's packet rates — millions of events per simulated second. Hot-path state must \
         be preallocated and reused.",
        "crates/dcsim/src/switch.rs:66:22: [hot-path-alloc] hot function `Switch::enqueue` \
         allocates via `Vec::push`\n    \
         hint: preallocate in setup and reuse the buffer",
    ),
    (
        "hot-path-block",
        "A blocking call (lock, recv, join) on the per-event path stalls the simulation clock \
         on OS scheduling, destroying both throughput and timing fidelity.",
        "crates/fleet/src/runner.rs:140:28: [hot-path-block] hot function `ShardQueue::next` \
         may block via `.lock()`\n    \
         hint: restructure so the hot path never waits, or allow with a contention argument",
    ),
    (
        "hot-path-missing",
        "A `[hotpath]` entry naming a function that no longer exists means its checks silently \
         stopped running — a rename erased coverage without anyone deciding that.",
        "simlint.toml:1:1: [hot-path-missing] configured hot function `Switch::enqueue` was not \
         found in any scanned file\n    \
         hint: a rename silently disables its coverage — update [hotpath] functions",
    ),
    (
        "lock-cycle",
        "Two paths acquiring the same locks in opposite orders deadlock the moment both run \
         concurrently — the classic failure of the fleet's work-stealing deques. The pass \
         builds the workspace lock-acquisition graph and reports every edge on a cycle.",
        "crates/fleet/src/runner.rs:151:27: [lock-cycle] acquiring `ShardQueue::deques[_]` \
         while holding `HostStore::entries` completes a lock-order cycle (`HostStore::entries` \
         -> `ShardQueue::deques[_]` -> `HostStore::entries`)\n    \
         hint: impose a single global lock order (acquire in ascending identity), or narrow \
         the first guard's scope so it drops before the second lock",
    ),
    (
        "unused-allow",
        "A suppression that no longer matches any finding is debt: the code it excused was \
         fixed or moved, and the stale allow would silently excuse a future, different \
         finding at the same spot.",
        "crates/dcsim/src/engine.rs:60:1: [unused-allow] allow(cast-truncation) suppresses \
         nothing\n    \
         hint: the finding it excused is gone — delete the suppression",
    ),
    (
        "unit-mismatch",
        "Mixing Ns/Bytes/Bps values in one expression (adding a duration to a byte count) \
         type-checks once the newtypes are unwrapped, but the number is meaningless. The \
         dataflow pass tracks unit provenance through locals and flags cross-unit arithmetic.",
        "crates/dcsim/src/link.rs:93:25: [unit-mismatch] `Ns` value added to `Bytes` value\n    \
         hint: convert explicitly via the unit's documented conversion, or split the expression",
    ),
    (
        "unchecked-scale",
        "Rate-to-bytes conversions multiply quantities near u64's range (100 Gbps x seconds); \
         unchecked `*`/`+` wrap silently in release builds. Scale-critical arithmetic must use \
         checked/saturating forms or widen to u128.",
        "crates/dcsim/src/link.rs:54:30: [unchecked-scale] unchecked `*` on Bps-scaled value\n    \
         hint: use checked_mul with an expect, or widen to u128 for the intermediate",
    ),
    (
        "float-determinism",
        "Float rounding differs across platforms and optimization levels (FMA contraction, \
         libm variance), so one f64 on a scheduling path forks the timeline between machines. \
         Functions under [float] roots and everything they call must stay in integer ns.",
        "crates/workload/src/sim.rs:205:40: [float-determinism] scheduling-path function \
         `EventQueue::schedule` uses floats via `Rng::exp`\n    \
         hint: float rounding is platform/opt-level dependent; scheduling math must stay in \
         integer Ns/Bytes/Bps (u128 ceil-division for rate conversions) — floats are for \
         reporting only",
    ),
    (
        "float-root-missing",
        "A `[float]` root naming a vanished function means float-determinism checking silently \
         stopped covering that path.",
        "simlint.toml:1:1: [float-root-missing] configured float root `Trace::emit` was not \
         found in any scanned file\n    \
         hint: a rename silently disables its coverage — update [float] roots",
    ),
    (
        "non-monotonic-schedule",
        "An event scheduled at a timestamp not provably >= now violates causality: the engine \
         either panics, silently reorders, or — worst — processes the past after the future, \
         corrupting queue state. Every schedule argument must be `now + positive delta` with \
         integer provenance; subtraction, raw literals, and float round-trips on the timestamp \
         are flagged.",
        "crates/workload/src/sim.rs:712:13: [non-monotonic-schedule] timestamp passed to \
         `schedule` is tainted by subtraction via `release - drain` (sim.rs:710)\n    \
         hint: scheduled times must be now + positive delta — clamp with max(now) or \
         saturating arithmetic proven non-negative",
    ),
    (
        "lookahead-floor",
        "Conservative PDES (ROADMAP item 2) can only run LPs in parallel if every cross-LP \
         event is at least `lookahead` in the future — that slack *is* the parallelism. A \
         boundary send scheduled without its declared lookahead term (e.g. the fabric delay) \
         shrinks the safe window to zero and serializes the engine.",
        "crates/workload/src/sim.rs:1597:9: [lookahead-floor] boundary schedule of `SwArrive` \
         in `RackSim::handle_mcast_send` does not include declared lookahead `fabric_delay`\n    \
         hint: cross-LP events must add the link's lookahead so conservative parallel \
         execution has slack — route the delay through the declared term",
    ),
    (
        "undeclared-channel",
        "Channel endpoints created outside the `[channels]` map in simlint.toml are invisible \
         to the discipline checks (SPSC violations, deadlock edges). The PDES refactor needs \
         every channel's topology declared so the analyzer can hold the code to it.",
        "crates/fleet/src/runner.rs:183:9: [undeclared-channel] channel created here \
         (`run_fleet::tx`/`run_fleet::rx`) is not declared in [channels]\n    \
         hint: declare it with its intended kind (spsc|mpsc) so producer/consumer discipline \
         is checked",
    ),
    (
        "spsc-multi-producer",
        "The PDES design exchanges cross-LP events over single-producer channels: SPSC ordering \
         is what makes merge at the consumer deterministic. Cloning a declared-SPSC sender \
         creates a second producer whose interleaving is scheduler-dependent — a determinism \
         hole, not just a perf bug.",
        "crates/fleet/src/runner.rs:188:22: [spsc-multi-producer] sender of declared-SPSC \
         channel `fleet-results` is cloned — second producer\n    \
         hint: declare the channel mpsc if multi-producer is intended, or route all sends \
         through the single owning LP",
    ),
    (
        "send-after-drop",
        "Sending on a channel whose sender was already dropped in the same function panics or \
         errors at runtime — usually a refactor left a stale send below the `drop(tx)` that \
         closes the channel for the workers.",
        "crates/fleet/src/runner.rs:210:9: [send-after-drop] `send` on `run_fleet::tx` after \
         `drop` of the sender (runner.rs:204)\n    \
         hint: move the send above the drop, or keep a clone for the coordinator's own sends",
    ),
    (
        "channel-recv-hot",
        "A blocking `recv` reachable from a hot-path root stalls the per-event loop on OS \
         scheduling — the same argument as hot-path-block, but stated per channel so the \
         PDES merge loops (which *should* use bounded try_recv polling) are auditable.",
        "crates/fleet/src/runner.rs:195:26: [channel-recv-hot] blocking `recv` on \
         `fleet-results` reachable from hot root `ShardQueue::next`\n    \
         hint: use try_recv with bounded backoff on hot paths, or exempt the function under \
         [channels] may_recv with a justification",
    ),
    (
        "lp-field-unmapped",
        "The LP partition must be total: a field of the LP state struct that is neither \
         per_lp nor shared in [lp] is state whose ownership nobody decided — exactly where a \
         data race hides when the engine goes parallel.",
        "crates/workload/src/sim.rs:405:5: [lp-field-unmapped] field `gro_pending` of LP state \
         `RackSim` is not classified in [lp]\n    \
         hint: the PDES partition must be total — add the field to [lp] per_lp (private to \
         one logical process) or shared (explicitly synchronized)",
    ),
    (
        "lp-escape",
        "A per-LP field that holds a shareable handle (Arc/Rc/Mutex/RefCell) or is reachable \
         from more than one declared LP root is not actually private: two logical processes \
         on two threads would alias it. Such state must be declared shared (and synchronized) \
         or factored into one LP.",
        "crates/workload/src/sim.rs:398:5: [lp-escape] per-LP field `telemetry` of `RackSim` \
         holds `Arc` — a shareable or interior-mutable handle inside supposedly private state \
         can alias across logical processes\n    \
         hint: move the field to [lp] shared behind an explicit synchronization boundary, or \
         replace the handle with owned per-LP data",
    ),
    (
        "wait-cycle",
        "Channel progress is a resource like a lock: a thread blocking on `recv` while \
         holding lock L waits for a send that — if every sender takes L — can never happen. \
         The lock-order pass adds chan:<name> nodes to the acquisition graph and reports \
         mixed lock/channel cycles, the deadlock shape lock-order analysis alone cannot see.",
        "crates/fleet/src/runner.rs:195:26: [wait-cycle] blocking `recv` on `chan:fleet-results` \
         while holding `HostStore::entries` completes a lock/channel wait cycle \
         (`HostStore::entries` -> `chan:fleet-results` -> `HostStore::entries`)\n    \
         hint: channel progress is a resource like a lock: never block on `recv` while \
         holding a lock its senders need — drop the guard before receiving, or move the \
         `send` out of the critical section",
    ),
    (
        "pdes-config-missing",
        "A [monotonic]/[channels]/[lp] entry naming a sink, boundary, endpoint, field, or \
         root that no longer matches the code means a PDES-readiness check silently stopped \
         running. Config must track the code it audits.",
        "simlint.toml:1:1: [pdes-config-missing] configured LP root `RackSim::step` was not \
         found in any scanned file\n    \
         hint: a rename silently disables escape checking — update [lp] roots",
    ),
];

/// Renders the explanation for one rule, or `None` for an unknown id.
pub fn explain(rule: &str) -> Option<String> {
    ALL_RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(id, why, example)| format!("[{id}]\n\n{why}\n\nexample:\n{example}\n"))
}

/// All registered rule ids, for `--explain` error messages.
pub fn rule_ids() -> impl Iterator<Item = &'static str> {
    ALL_RULES.iter().map(|(id, _, _)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_well_formed() {
        let mut seen = BTreeSet::new();
        for (id, why, example) in &ALL_RULES {
            assert!(seen.insert(id), "duplicate rule {id}");
            assert!(
                !why.is_empty() && !example.is_empty(),
                "empty entry for {id}"
            );
            assert!(
                example.contains(&format!("[{id}]")),
                "example for {id} must show the rule tag"
            );
            assert!(
                example.contains("hint:"),
                "example for {id} must show a hint"
            );
        }
    }

    #[test]
    fn explain_formats_known_and_rejects_unknown() {
        let text = explain("wait-cycle").expect("registered");
        assert!(text.starts_with("[wait-cycle]"), "{text}");
        assert!(text.contains("example:"), "{text}");
        assert!(explain("nonexistent").is_none());
    }

    /// Scans the analyzer's own sources for rule-shaped string literals
    /// (kebab-case, no spaces) and checks each is documented. This is
    /// the registry's freshness guarantee: adding a pass that emits a
    /// new rule without explain text fails here.
    #[test]
    fn every_emitted_rule_has_explain_text() {
        let registered: BTreeSet<&str> = rule_ids().collect();
        let src_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut found = BTreeSet::new();
        for entry in std::fs::read_dir(src_dir).expect("src dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source");
            // Assertion snippets in test modules are not emitted rules;
            // by convention the test module closes each file.
            let text = text.split("#[cfg(test)]").next().unwrap_or(&text);
            for lit in string_literals(text) {
                if is_rule_shaped(&lit) {
                    found.insert(lit);
                }
            }
        }
        for rule in &found {
            assert!(
                registered.contains(rule.as_str()),
                "rule `{rule}` is emitted in src/ but has no --explain entry"
            );
        }
        // And the reverse: no dead registry entries.
        for rule in &registered {
            assert!(
                found.contains(*rule),
                "registered rule `{rule}` never appears in src/"
            );
        }
    }

    /// Complete `"..."` literals in source text, comments skipped.
    fn string_literals(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                b'\'' => {
                    // Char literal (or lifetime): skip past a possible
                    // escaped quote like '"'.
                    if bytes.get(i + 1) == Some(&b'\\') {
                        i += 3;
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        i += 2;
                    }
                    i += 1;
                }
                b'"' => {
                    let mut lit = String::new();
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'"' {
                        if bytes[i] == b'\\' {
                            i += 1;
                        }
                        lit.push(bytes[i] as char);
                        i += 1;
                    }
                    i += 1;
                    out.push(lit);
                }
                _ => i += 1,
            }
        }
        out
    }

    /// `foo-bar-baz`: lowercase alpha segments joined by single hyphens.
    fn is_rule_shaped(s: &str) -> bool {
        s.contains('-')
            && !s.starts_with('-')
            && !s.ends_with('-')
            && !s.contains("--")
            && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
    }
}
