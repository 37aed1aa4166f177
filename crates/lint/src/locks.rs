//! The concurrency rules (`LOCK001`–`LOCK003`): a declared lock
//! hierarchy plus a textual guard-liveness scan over the serve/cache
//! substrate.
//!
//! # The declared hierarchy
//!
//! Every named lock in `crates/serve` and `crates/collectives` belongs
//! to a **class** (its field/receiver name), and the classes are
//! totally ordered, outermost first:
//!
//! | rank | class       | lives in                                   |
//! |------|-------------|--------------------------------------------|
//! | 0    | `conns`     | `serve::http` — live connection handles    |
//! | 1    | `flights`   | `serve::coalesce` — the flight table       |
//! | 2    | `responses` | `serve::dispatch` — the response cache     |
//! | 3    | `slot`      | `serve::coalesce` — one flight's slot      |
//! | 4    | `shard`     | `collectives::sharded` — one cache shard   |
//!
//! A thread may only acquire *downward* (a higher-rank class) while
//! holding a guard: acquiring `flights` while holding `slot` is an
//! inversion, and two threads doing it in opposite orders deadlock.
//! `LOCK001` flags any acquisition whose class does not rank strictly
//! below every live guard — including a same-class reacquisition,
//! which self-deadlocks on a `Mutex`.
//!
//! # What "holding" means here
//!
//! This is a *textual* scan, not a borrow checker. A `let`-bound guard
//! (`let g = lock_or_recover(&self.flights);`) is live until its block
//! closes or a `drop(g)` appears; an un-bound acquisition chained into
//! a call (`lock_or_recover(&self.responses).get(k)`) is a temporary
//! that dies at the end of its line. Recognised acquisition forms:
//! the `interleave::sync` recovery helpers (`lock_or_recover`,
//! `read_or_recover`, `write_or_recover`) and the raw `.lock(` /
//! `.read(` / `.write(` methods, with `.unwrap()` / `.expect(` /
//! `.unwrap_or_else(` treated as guard-preserving chains. Calls into
//! functions that themselves acquire are *not* followed — the
//! hierarchy table is what makes the per-site check sound: if every
//! site only acquires downward from what it holds, no cycle can form
//! across call boundaries either.
//!
//! `LOCK002` enforces the condvar discipline on the `cv` class:
//! an unbounded `.wait(` / `.wait_while(` is always flagged (a missed
//! wakeup parks a client-blockable path forever); `.wait_timeout(` must
//! sit inside a `loop`/`while` (the predicate re-check that makes the
//! bounded timeout a safety net rather than a correctness hole).
//!
//! `LOCK003` flags a live guard on a line that calls into
//! user-supplied code (`compute(`, closures handed to
//! `run_or_follow` / `get_or_insert_with`): user code must never run
//! under a substrate lock — it can block, panic, or re-enter.
//!
//! Deliberate exceptions carry `// lint: allow(lock-order)`,
//! `// lint: allow(cv-wait)`, or `// lint: allow(guard-across-compute)`
//! markers on the same or previous line, with a reason.

use crate::model::SourceModel;
use parallelism_core::analyze::{Diagnostic, RuleId};

/// The declared lock hierarchy, outermost class first. Mirrored in
/// DESIGN.md §13; the interleave battery checks the dynamic side of
/// the same contract.
pub const LOCK_HIERARCHY: [&str; 5] = ["conns", "flights", "responses", "slot", "shard"];

/// Receiver names treated as condition variables by `LOCK002`.
pub const CONDVAR_CLASSES: [&str; 1] = ["cv"];

/// Path prefixes the lock rules apply to: the concurrent serve/cache
/// substrate. (`crates/interleave` *implements* the primitives and is
/// deliberately out of scope.)
pub const LOCK_SCOPE: [&str; 2] = ["crates/serve/src/", "crates/collectives/src/"];

/// Marker suppressing LOCK001 at the inner acquisition site.
pub const LOCK_ORDER_MARKER: &str = "lint: allow(lock-order)";
/// Marker suppressing LOCK002 at the wait site.
pub const CV_WAIT_MARKER: &str = "lint: allow(cv-wait)";
/// Marker suppressing LOCK003 at the call site.
pub const GUARD_MARKER: &str = "lint: allow(guard-across-compute)";

/// Tokens that mean "user-supplied code runs here" for LOCK003.
const COMPUTE_TOKENS: [&str; 3] = ["compute(", "run_or_follow(", "get_or_insert_with("];

/// Chained calls that still return the guard (so the binding stays a
/// guard binding, not a temporary of some other type).
const GUARD_PRESERVING: [&str; 3] = [".unwrap()", ".expect(", ".unwrap_or_else("];

/// Whether the lock rules apply to `path`.
pub fn in_scope(path: &str) -> bool {
    LOCK_SCOPE.iter().any(|p| path.starts_with(p))
}

fn rank(class: &str) -> Option<usize> {
    LOCK_HIERARCHY.iter().position(|c| *c == class)
}

/// How an acquisition's guard lives.
enum Binding {
    /// `let name = <acquire>;` — lives until the block closes or
    /// `drop(name)`. `depth` is the brace depth entering the line.
    Let { name: String, depth: i32 },
    /// Chained or positional — dies at the end of its line.
    Temp,
}

struct Guard {
    class: &'static str,
    line: usize,
    binding: Binding,
}

/// One recognised acquisition site on a line.
struct Acquisition {
    class: &'static str,
    /// Byte offset of the end of the full acquisition expression
    /// (past guard-preserving chains), for binding classification.
    expr_end: usize,
    /// Byte offset where the acquisition expression starts.
    expr_start: usize,
}

/// Runs the three lock rules over one in-scope file.
pub fn check_locks(model: &SourceModel, out: &mut Vec<Diagnostic>) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    // Stack of the (trimmed) lines that opened each currently-open
    // brace — the enclosing-loop evidence for LOCK002.
    let mut openers: Vec<String> = Vec::new();

    for (idx, line) in model.lines().iter().enumerate() {
        if line.in_test {
            // Brace depth still advances through test regions so
            // guards bound outside them die at the right place.
            track_braces(&line.code, &mut openers, &mut depth);
            guards.retain(|g| match g.binding {
                Binding::Let { depth: d, .. } => depth >= d,
                Binding::Temp => false,
            });
            continue;
        }
        let code = line.code.as_str();
        let trimmed = line.raw.trim();

        // 1. Acquisitions, in textual order.
        for acq in find_acquisitions(model, idx) {
            for held in &guards {
                let held_rank = rank(held.class);
                let new_rank = rank(acq.class);
                if let (Some(h), Some(n)) = (held_rank, new_rank) {
                    if h >= n && !model.marked(idx, LOCK_ORDER_MARKER) {
                        out.push(
                            Diagnostic::error(
                                RuleId::Lock001,
                                format!(
                                    "lock-order inversion: `{}` acquired while holding `{}` \
                                     (declared hierarchy: {})",
                                    acq.class,
                                    held.class,
                                    LOCK_HIERARCHY.join(" \u{2192} "),
                                ),
                            )
                            .at_op(model.location(idx))
                            .with_witness(vec![
                                format!(
                                    "holds `{}` since {}: {}",
                                    held.class,
                                    model.location(held.line),
                                    model.lines()[held.line].raw.trim()
                                ),
                                format!(
                                    "acquires `{}` at {}: {}",
                                    acq.class,
                                    model.location(idx),
                                    trimmed
                                ),
                            ]),
                        );
                    }
                }
            }
            guards.push(Guard {
                class: acq.class,
                line: idx,
                binding: classify_binding(code, acq.expr_start, acq.expr_end, depth),
            });
        }

        // 2. LOCK002 — condvar discipline.
        check_condvar(model, idx, &openers, out);

        // 3. LOCK003 — guard live across user-supplied code.
        let calls_user_code = COMPUTE_TOKENS.iter().any(|t| {
            code.match_indices(t)
                .any(|(pos, _)| !ident_char_before(code.as_bytes(), pos))
        });
        if calls_user_code
            && !code.contains("fn ")
            && !guards.is_empty()
            && !model.marked(idx, GUARD_MARKER)
        {
            let held: Vec<String> = guards
                .iter()
                .map(|g| format!("`{}` held since {}", g.class, model.location(g.line)))
                .collect();
            out.push(
                Diagnostic::error(
                    RuleId::Lock003,
                    "lock guard held across a call into user-supplied code (compute \
                     closures must run outside every substrate lock: they can block, \
                     panic, or re-enter)",
                )
                .at_op(model.location(idx))
                .with_witness(std::iter::once(trimmed.to_string()).chain(held).collect()),
            );
        }

        // 4. End-of-line guard deaths and depth bookkeeping:
        // temporaries die with their line, `drop(name)` kills a
        // let-bound guard, and a closing block kills everything bound
        // at a deeper depth.
        guards.retain(|g| match &g.binding {
            Binding::Temp => false,
            Binding::Let { name, .. } => {
                name.is_empty() || !code.contains(&format!("drop({name})"))
            }
        });
        track_braces(code, &mut openers, &mut depth);
        guards.retain(|g| match g.binding {
            Binding::Let { depth: d, .. } => depth >= d,
            Binding::Temp => true,
        });
    }
}

/// Advances the opener stack and depth through one blanked-code line,
/// brace by brace (so `} else {` replaces its opener rather than
/// keeping the stale one).
fn track_braces(code: &str, openers: &mut Vec<String>, depth: &mut i32) {
    for b in code.bytes() {
        match b {
            b'{' => openers.push(code.trim().to_string()),
            b'}' => {
                openers.pop();
            }
            _ => {}
        }
    }
    *depth = openers.len() as i32;
}

/// Whether the byte before `pos` is an identifier char (used to reject
/// e.g. `my_compute(` matching `compute(`).
fn ident_char_before(bytes: &[u8], pos: usize) -> bool {
    pos > 0 && (bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_')
}

/// Finds lock acquisitions on line `idx`, in textual order.
fn find_acquisitions(model: &SourceModel, idx: usize) -> Vec<Acquisition> {
    let code = model.lines()[idx].code.as_str();
    let mut found: Vec<Acquisition> = Vec::new();

    // Helper form: lock_or_recover(&self.flights), read_or_recover(shard), ...
    for helper in ["lock_or_recover(", "read_or_recover(", "write_or_recover("] {
        for (pos, _) in code.match_indices(helper) {
            if ident_char_before(code.as_bytes(), pos) {
                continue; // part of a longer identifier (or a def site like `pub fn lock_or_recover(`? those have `fn ` before — still skip via ident check on callers)
            }
            let open = pos + helper.len() - 1;
            let Some(close) = balanced_close(code, open) else {
                continue;
            };
            let arg = &code[open + 1..close];
            if let Some(class) = class_of_receiver(arg) {
                found.push(Acquisition {
                    class,
                    expr_start: pos,
                    expr_end: extend_chain(code, close + 1),
                });
            }
        }
    }

    // Method form: <recv>.lock( / .read( / .write(
    for method in [".lock(", ".read(", ".write("] {
        for (pos, _) in code.match_indices(method) {
            let recv = receiver_before(model, idx, pos);
            if let Some(class) = class_of_receiver(&recv) {
                let open = pos + method.len() - 1;
                let end = balanced_close(code, open).map_or(code.len(), |c| c + 1);
                found.push(Acquisition {
                    class,
                    expr_start: receiver_start(code, pos),
                    expr_end: extend_chain(code, end),
                });
            }
        }
    }

    found.sort_by_key(|a| a.expr_start);
    found
}

/// LOCK002: unbounded waits are flagged outright; bounded waits must
/// sit inside a `loop`/`while` within the current function.
fn check_condvar(model: &SourceModel, idx: usize, openers: &[String], out: &mut Vec<Diagnostic>) {
    let code = model.lines()[idx].code.as_str();
    let trimmed = model.lines()[idx].raw.trim();
    for token in [".wait(", ".wait_while("] {
        for (pos, _) in code.match_indices(token) {
            let recv = receiver_before(model, idx, pos);
            let is_cv = last_segment(&recv).is_some_and(|seg| CONDVAR_CLASSES.contains(&seg));
            if is_cv && !model.marked(idx, CV_WAIT_MARKER) {
                out.push(
                    Diagnostic::error(
                        RuleId::Lock002,
                        "unbounded Condvar wait on a client-blockable path (a missed \
                         wakeup parks the caller forever; use `wait_timeout` in a \
                         predicate loop)",
                    )
                    .at_op(model.location(idx))
                    .with_witness(vec![trimmed.to_string()]),
                );
            }
        }
    }
    for (pos, _) in code.match_indices(".wait_timeout(") {
        let recv = receiver_before(model, idx, pos);
        if last_segment(&recv).is_some_and(|seg| CONDVAR_CLASSES.contains(&seg)) {
            let mut in_loop = false;
            for opener in openers.iter().rev() {
                if opener.contains("fn ") {
                    break;
                }
                if opener.starts_with("loop")
                    || opener.contains(" loop ")
                    || opener.contains("while ")
                    || opener.starts_with("while")
                {
                    in_loop = true;
                    break;
                }
            }
            if !in_loop && !model.marked(idx, CV_WAIT_MARKER) {
                out.push(
                    Diagnostic::error(
                        RuleId::Lock002,
                        "Condvar::wait_timeout outside a predicate loop (a spurious or \
                         early wakeup returns with the predicate still false; re-check \
                         in a loop)",
                    )
                    .at_op(model.location(idx))
                    .with_witness(vec![trimmed.to_string()]),
                );
            }
        }
    }
}

/// The byte index one past the matching `)` for the `(` at `open`.
fn balanced_close(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extends `end` past guard-preserving chained calls
/// (`.unwrap_or_else(...)` etc.), returning where the acquisition
/// expression really ends.
fn extend_chain(code: &str, mut end: usize) -> usize {
    loop {
        let rest = &code[end.min(code.len())..];
        let Some(chain) = GUARD_PRESERVING.iter().find(|c| rest.starts_with(**c)) else {
            return end;
        };
        if chain.ends_with('(') {
            let open = end + chain.len() - 1;
            match balanced_close(code, open) {
                Some(close) => end = close + 1,
                None => return code.len(),
            }
        } else {
            end += chain.len();
        }
    }
}

/// The start of the receiver expression feeding a `.method(` at `dot`.
fn receiver_start(code: &str, dot: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = dot;
    while i > 0 {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b':' {
            i -= 1;
        } else if b == b')' {
            // Walk back over a balanced call, e.g. `self.shard(key)`.
            let mut depth = 0i32;
            while i > 0 {
                match bytes[i - 1] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
        } else {
            break;
        }
    }
    i
}

/// The textual receiver of a `.method(` at byte `pos` of line `idx`,
/// joining up to three previous lines so rustfmt-split chains
/// (`self\n.cv\n.wait_timeout(...)`) still resolve.
fn receiver_before(model: &SourceModel, idx: usize, pos: usize) -> String {
    let code = model.lines()[idx].code.as_str();
    let mut text = code[..pos].to_string();
    let mut back = idx;
    while text.trim_start().starts_with('.') || text.trim().is_empty() {
        if back == 0 || idx - back >= 3 {
            break;
        }
        back -= 1;
        if model.lines()[back].in_test {
            break;
        }
        text = format!("{}{}", model.lines()[back].code.trim(), text.trim_start());
    }
    let start = receiver_start(&text, text.len());
    text[start..].to_string()
}

/// The last path segment of a receiver expression, with any call
/// arguments stripped: `&self.map.flights` → `flights`,
/// `self.shard(&key)` → `shard`, `shard` → `shard`.
fn last_segment(receiver: &str) -> Option<&str> {
    let r = receiver
        .trim()
        .trim_start_matches(['&', '*', ' '])
        .trim_start_matches("mut ")
        .trim();
    let r = match r.find('(') {
        Some(p) => &r[..p],
        None => r,
    };
    let seg = r.rsplit(['.', ':']).next()?.trim();
    if seg.is_empty() || !seg.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
        None
    } else {
        Some(seg)
    }
}

/// The hierarchy class of a receiver expression, if its final segment
/// names one.
fn class_of_receiver(receiver: &str) -> Option<&'static str> {
    let seg = last_segment(receiver)?;
    LOCK_HIERARCHY.iter().find(|c| **c == seg).copied()
}

/// Classifies how the guard produced at `expr_start..expr_end` is
/// bound on `code`.
fn classify_binding(code: &str, expr_start: usize, expr_end: usize, depth: i32) -> Binding {
    let after = code[expr_end.min(code.len())..].trim_start();
    if after.starts_with('.') {
        return Binding::Temp; // chained into a non-guard expression
    }
    if !(after.is_empty() || after.starts_with(';')) {
        return Binding::Temp; // positional: an argument, a match head, ...
    }
    let before = code[..expr_start].trim_end();
    let Some(eq) = before.strip_suffix('=') else {
        return Binding::Temp;
    };
    let lhs = eq.trim_end();
    let Some(let_pos) = lhs.rfind("let ") else {
        return Binding::Temp;
    };
    let pat = lhs[let_pos + 4..].trim().trim_start_matches("mut ").trim();
    // Only a simple identifier pattern gets drop()-tracking; anything
    // fancier still dies with its block.
    let name = if pat.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') && !pat.is_empty() {
        pat.to_string()
    } else {
        String::new()
    };
    Binding::Let { name, depth }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_lint(text: &str) -> Vec<Diagnostic> {
        let model = SourceModel::parse("crates/serve/src/fixture.rs", text);
        let mut out = Vec::new();
        check_locks(&model, &mut out);
        out
    }

    #[test]
    fn legal_downward_nesting_is_clean() {
        let v = lock_lint(
            "fn f(&self) {\n    let flights = lock_or_recover(&self.flights);\n    let slot = lock_or_recover(&self.slot);\n    drop(slot);\n    drop(flights);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inversion_is_flagged_with_both_sites_as_witness() {
        let v = lock_lint(
            "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    let flights = lock_or_recover(&self.flights);\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lock001);
        assert_eq!(v[0].op.as_deref(), Some("crates/serve/src/fixture.rs:3"));
        assert!(v[0].witness[0].contains("fixture.rs:2"), "{v:?}");
        assert!(v[0]
            .message
            .contains("`flights` acquired while holding `slot`"));
    }

    #[test]
    fn same_class_reacquisition_is_an_inversion() {
        let v = lock_lint(
            "fn f(&self) {\n    let a = lock_or_recover(&self.flights);\n    let b = lock_or_recover(&self.flights);\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("holding `flights`"), "{v:?}");
    }

    #[test]
    fn temporaries_die_at_end_of_line() {
        let v = lock_lint(
            "fn f(&self) {\n    lock_or_recover(&self.slot).publish();\n    lock_or_recover(&self.flights).remove(&k);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn block_close_releases_let_bound_guards() {
        let v = lock_lint(
            "fn f(&self) {\n    {\n        let slot = lock_or_recover(&self.slot);\n    }\n    let flights = lock_or_recover(&self.flights);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn drop_releases_early() {
        let v = lock_lint(
            "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    drop(slot);\n    let flights = lock_or_recover(&self.flights);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_lock_unwrap_form_is_recognised() {
        let v = lock_lint(
            "fn f(&self) {\n    let slot = self.slot.lock().unwrap();\n    let flights = self.flights.lock().unwrap();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lock001);
    }

    #[test]
    fn shard_while_holding_slot_is_legal_but_reverse_is_not() {
        let ok = lock_lint(
            "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    let got = read_or_recover(self.shard(&key)).get(&key);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = lock_lint(
            "fn f(&self) {\n    let shard = write_or_recover(self.shard(&key));\n    let slot = lock_or_recover(&self.slot);\n}\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn marker_suppresses_lock001() {
        let v = lock_lint(
            "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    // lint: allow(lock-order) — teardown path, single-threaded by contract\n    let flights = lock_or_recover(&self.flights);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bare_condvar_wait_is_flagged() {
        let v = lock_lint(
            "fn f(&self) {\n    let g = lock_or_recover(&self.slot);\n    let g = self.cv.wait(g).unwrap();\n}\n",
        );
        assert!(
            v.iter()
                .any(|d| d.rule == RuleId::Lock002 && d.message.contains("unbounded Condvar wait")),
            "{v:?}"
        );
    }

    #[test]
    fn wait_timeout_outside_a_loop_is_flagged_inside_is_clean() {
        let bad = lock_lint(
            "fn f(&self) {\n    let g = lock_or_recover(&self.slot);\n    let (g, _) = self.cv.wait_timeout(g, T).unwrap();\n}\n",
        );
        assert!(
            bad.iter().any(
                |d| d.rule == RuleId::Lock002 && d.message.contains("outside a predicate loop")
            ),
            "{bad:?}"
        );
        let ok = lock_lint(
            "fn f(&self) {\n    let mut g = lock_or_recover(&self.slot);\n    loop {\n        let (got, _) = self.cv.wait_timeout(g, T).unwrap();\n        g = got;\n    }\n}\n",
        );
        assert!(ok.iter().all(|d| d.rule != RuleId::Lock002), "{ok:?}");
    }

    #[test]
    fn rustfmt_split_receiver_chains_still_resolve() {
        let bad = lock_lint(
            "fn f(&self) {\n    let g = self\n        .cv\n        .wait(guard)\n        .unwrap();\n}\n",
        );
        assert!(bad.iter().any(|d| d.rule == RuleId::Lock002), "{bad:?}");
    }

    #[test]
    fn guard_across_compute_is_flagged() {
        let v = lock_lint(
            "fn f(&self) {\n    let g = lock_or_recover(&self.responses);\n    let v = compute();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lock003);
        let ok = lock_lint(
            "fn f(&self) {\n    let v = compute();\n    lock_or_recover(&self.responses).insert(k, v);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn guard_temp_on_the_same_line_as_compute_is_flagged() {
        let v = lock_lint(
            "fn f(&self) {\n    lock_or_recover(&self.responses).insert(k, compute());\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lock003);
    }

    #[test]
    fn test_regions_are_exempt_from_lock_rules() {
        let v = lock_lint(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let slot = lock_or_recover(&self.slot);\n        let flights = lock_or_recover(&self.flights);\n    }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
