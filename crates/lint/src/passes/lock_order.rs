//! lock-order: interprocedural mutex acquisition ordering.
//!
//! The workspace's mutexes fall into named classes (see [`classify`]);
//! the cache's documented invariant is that the replacement `tracker`
//! lock is only ever taken while holding **no** stripe lock, while the
//! reverse nesting (stripe under tracker, used by eviction) is the one
//! allowed inter-class edge. This pass extracts every `.lock()` site,
//! propagates acquisitions through calls to a fixpoint, builds the
//! class-level acquisition graph, and fails on:
//!
//! * the explicit forbidden edge `stripe → tracker` (deadlocks against
//!   eviction's `tracker → stripe`);
//! * any cycle among classes (two functions nesting two classes in
//!   opposite orders);
//! * a `.lock()` whose receiver is in no class — new mutexes must be
//!   registered so the analysis stays sound as the code grows.
//!
//! The model is an over-approximation: a direct acquire is treated as
//! held for the rest of its function (guards dropped early still
//! produce edges), and calls merge by bare name. Edges *only* originate
//! at direct acquires (or guard-returning calls like `lock_state`) —
//! two sibling calls that each lock internally do not create an edge,
//! because neither guard outlives its callee. Same-class self-edges are
//! ignored: the graph orders classes, and re-taking one class in
//! sequence (the serve pool's worker loop and its `queue` lock) is not
//! a nesting.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use crate::findings::Finding;
use crate::lexer::Token;
use crate::workspace::{SourceFile, Workspace};

/// Maps a lock receiver identifier to its class. `Some(None)` means
/// known-and-ignored (std I/O "locks", not mutexes); `None` means
/// unknown — a lint error until registered here.
fn classify(receiver: &str) -> Option<Option<&'static str>> {
    match receiver {
        "tracker" => Some(Some("tracker")),
        "shards" | "shard" => Some(Some("stripe")),
        "state" => Some(Some("queue")),
        "slots" => Some(Some("slots")),
        "workers" => Some(Some("workers")),
        "conns" => Some(Some("conns")),
        // `stdin.lock()` / `stdout.lock()` return std I/O handles, not
        // mutex guards; they never participate in mutex ordering.
        "stdin" | "stdout" | "stderr" => Some(None),
        _ => None,
    }
}

/// Functions that *return* a mutex guard: a call to one is an acquire
/// at the call site (the guard lives in the caller).
fn guard_returning(fn_name: &str) -> Option<&'static str> {
    match fn_name {
        "lock_state" => Some("queue"),
        _ => None,
    }
}

/// Ubiquitous std container/iterator/sync method names, never tracked
/// as calls. Calls merge by bare name, and these names collide with
/// workspace functions (`Striped::len`, `ReplacementTracker::touch`
/// call sites vs `HashMap::insert`, `Vec::push`, …), which would wire
/// every lock class to every other through the fixpoint. The cost is
/// that a nesting routed *only* through such a name is invisible —
/// acceptable because lock-holding helpers in this workspace carry
/// distinctive names (`note_hit`, `admit`, `run_isolated`).
const CALL_DENYLIST: [&str; 44] = [
    "and_then",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "drain",
    "drop",
    "entry",
    "extend",
    "filter",
    "find",
    "find_map",
    "flat_map",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "len",
    "load",
    "map",
    "max",
    "min",
    "next",
    "ok_or",
    "ok_or_else",
    "or_else",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "recv",
    "remove",
    "send",
    "spawn",
    "store",
    "sum",
];

/// One ordered event inside a function body.
#[derive(Debug)]
enum Ev {
    /// A direct acquire of a class (a `.lock()` site or a
    /// guard-returning call), at this line.
    Acquire(&'static str, u32),
    /// A call to a named function.
    Call(String),
}

/// One extracted function body.
#[derive(Debug)]
struct Func {
    name: String,
    file: PathBuf,
    events: Vec<Ev>,
}

/// A class-level acquisition edge with its witness site.
#[derive(Debug)]
struct Edge {
    from: &'static str,
    to: &'static str,
    file: PathBuf,
    line: u32,
    via: String,
}

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut funcs = Vec::new();
    for file in &ws.files {
        extract_functions(file, &mut funcs, &mut findings);
    }

    // Transitive acquisition sets, merged by bare function name and
    // iterated to a fixpoint (the call graph may have cycles).
    let mut acquires: HashMap<&str, HashSet<&'static str>> = HashMap::new();
    for f in &funcs {
        let entry = acquires.entry(f.name.as_str()).or_default();
        for ev in &f.events {
            if let Ev::Acquire(c, _) = ev {
                entry.insert(c);
            }
        }
    }
    loop {
        let mut changed = false;
        for f in &funcs {
            let mut add: HashSet<&'static str> = HashSet::new();
            for ev in &f.events {
                if let Ev::Call(name) = ev {
                    if let Some(set) = acquires.get(name.as_str()) {
                        add.extend(set.iter().copied());
                    }
                }
            }
            let entry = acquires.entry(f.name.as_str()).or_default();
            let before = entry.len();
            entry.extend(add);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Edges: from each direct acquire to every class acquired later in
    // the same function (directly, or transitively through a call).
    let mut edges: Vec<Edge> = Vec::new();
    for f in &funcs {
        for (i, ev) in f.events.iter().enumerate() {
            let Ev::Acquire(from, line) = ev else {
                continue;
            };
            for later in &f.events[i + 1..] {
                match later {
                    Ev::Acquire(to, _) if to != from => edges.push(Edge {
                        from,
                        to,
                        file: f.file.clone(),
                        line: *line,
                        via: format!("in `{}`", f.name),
                    }),
                    Ev::Call(name) => {
                        for &to in acquires.get(name.as_str()).into_iter().flatten() {
                            if to != *from {
                                edges.push(Edge {
                                    from,
                                    to,
                                    file: f.file.clone(),
                                    line: *line,
                                    via: format!("in `{}` via call to `{name}`", f.name),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Forbidden edge: stripe held while taking tracker.
    for e in &edges {
        if e.from == "stripe" && e.to == "tracker" {
            findings.push(Finding::error(
                "lock-order",
                &e.file,
                e.line,
                format!(
                    "stripe lock held while acquiring tracker lock ({}) — deadlocks against eviction's tracker→stripe nesting",
                    e.via
                ),
            ));
        }
    }

    // Cycles: an edge whose target can reach back to its source.
    let mut adj: HashMap<&'static str, HashSet<&'static str>> = HashMap::new();
    for e in &edges {
        adj.entry(e.from).or_default().insert(e.to);
    }
    let mut reported: HashSet<(&str, &str)> = HashSet::new();
    for e in &edges {
        if (e.from, e.to) == ("stripe", "tracker") {
            continue; // already reported as the forbidden edge
        }
        if reaches(&adj, e.to, e.from) && reported.insert((e.from, e.to)) {
            findings.push(Finding::error(
                "lock-order",
                &e.file,
                e.line,
                format!(
                    "lock-order cycle: `{}` acquired before `{}` here ({}), but `{}` is also acquired before `{}` elsewhere",
                    e.from, e.to, e.via, e.to, e.from
                ),
            ));
        }
    }
    findings
}

/// Whether `to` is reachable from `from` in the class graph.
fn reaches(adj: &HashMap<&'static str, HashSet<&'static str>>, from: &str, to: &str) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![from];
    while let Some(c) = stack.pop() {
        if c == to {
            return true;
        }
        if !seen.insert(c) {
            continue;
        }
        if let Some(next) = adj.get(c) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Extracts every non-test `fn` body in `file` into [`Func`] event
/// lists; unclassifiable `.lock()` receivers become findings directly.
fn extract_functions(file: &SourceFile, funcs: &mut Vec<Func>, findings: &mut Vec<Finding>) {
    let t = &file.tokens;
    let mut i = 0;
    while i + 1 < t.len() {
        if !(t[i].is_ident("fn") && t[i + 1].ident().is_some()) {
            i += 1;
            continue;
        }
        let name = t[i + 1].ident().expect("checked above").to_string();
        if file.in_test_code(t[i].line) {
            i += 2;
            continue;
        }
        // Find the body `{`, or a `;` (trait method without default).
        let mut j = i + 2;
        let mut depth = 0i32;
        let body = loop {
            let Some(tok) = t.get(j) else {
                break None;
            };
            if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && tok.is_punct(';') {
                break None;
            } else if depth == 0 && tok.is_punct('{') {
                break Some(j);
            }
            j += 1;
        };
        let Some(open) = body else {
            i = j.max(i + 2);
            continue;
        };
        let Some((open, close)) = crate::workspace::next_brace_block(t, open) else {
            break;
        };
        funcs.push(Func {
            name,
            file: file.path.clone(),
            events: events_in(file, open, close, findings),
        });
        // Nested fns are also visited (their events double-counted in
        // the parent — a harmless over-approximation).
        i = open + 1;
    }
}

/// Ordered acquire/call events between `open` and `close`.
fn events_in(file: &SourceFile, open: usize, close: usize, findings: &mut Vec<Finding>) -> Vec<Ev> {
    let t = &file.tokens;
    let mut events = Vec::new();
    let mut k = open + 1;
    while k < close {
        let tok = &t[k];
        let Some(name) = tok.ident() else {
            k += 1;
            continue;
        };
        // `.lock(` — a mutex acquire; classify its receiver.
        if name == "lock"
            && k >= 1
            && t[k - 1].is_punct('.')
            && t.get(k + 1).is_some_and(|n| n.is_punct('('))
        {
            match receiver_of(t, k - 1).map(|r| (classify(r), r)) {
                Some((Some(Some(class)), _)) => events.push(Ev::Acquire(class, tok.line)),
                Some((Some(None), _)) => {} // known non-mutex lock
                Some((None, recv)) => findings.push(Finding::error(
                    "lock-order",
                    &file.path,
                    tok.line,
                    format!(
                        "unclassified lock site: receiver `{recv}` is in no known mutex class — register it in the lock-order pass"
                    ),
                )),
                None => findings.push(Finding::error(
                    "lock-order",
                    &file.path,
                    tok.line,
                    "unclassified lock site: could not determine the receiver",
                )),
            }
            k += 2;
            continue;
        }
        // `name(` — a call (guard-returning calls are acquires). Skip
        // definitions (`fn name(`) and macros (`name!(`).
        if t.get(k + 1).is_some_and(|n| n.is_punct('('))
            && !(k >= 1 && t[k - 1].is_ident("fn"))
            && name != "lock"
            && !CALL_DENYLIST.contains(&name)
        {
            if let Some(class) = guard_returning(name) {
                events.push(Ev::Acquire(class, tok.line));
            } else {
                events.push(Ev::Call(name.to_string()));
            }
        }
        k += 1;
    }
    events
}

/// The receiver identifier of a method call: walks left from the `.` at
/// `dot`, over one balanced `[...]`/`(...)` group if present, to the
/// preceding identifier (`self.shards[i].lock()` → `shards`;
/// `queues[v].lock()` → `queues`; `s.lock()` → `s`).
fn receiver_of(t: &[Token], dot: usize) -> Option<&str> {
    let mut k = dot.checked_sub(1)?;
    for (open, close) in [('[', ']'), ('(', ')')] {
        if t[k].is_punct(close) {
            let mut depth = 0i32;
            loop {
                if t[k].is_punct(close) {
                    depth += 1;
                } else if t[k].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            k = k.checked_sub(1)?;
        }
    }
    t[k].ident()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    #[test]
    fn forbidden_stripe_then_tracker_is_flagged() {
        let src = "fn bad(&self) {\n    let s = self.shards[0].lock().unwrap();\n    let t = self.tracker.lock().unwrap();\n    drop((s, t));\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0]
            .message
            .contains("stripe lock held while acquiring tracker"));
    }

    #[test]
    fn tracker_then_stripe_is_the_allowed_direction() {
        let src = "fn evict(&self) {\n    let t = self.tracker.lock().unwrap();\n    self.shards[0].lock().unwrap().remove(&1);\n    drop(t);\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        assert!(run(&ws).is_empty(), "{:?}", run(&ws));
    }

    #[test]
    fn interprocedural_forbidden_edge_through_a_call() {
        let src = "fn note(&self) {\n    self.tracker.lock().unwrap().touch();\n}\nfn bad(&self) {\n    let s = self.shards[1].lock().unwrap();\n    self.note();\n    drop(s);\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("via call to `note`"));
    }

    #[test]
    fn sibling_calls_do_not_create_edges() {
        // Neither guard outlives its callee: no nesting, no edge.
        let src = "fn a(&self) { self.shards[0].lock().unwrap(); }\nfn b(&self) { self.tracker.lock().unwrap(); }\nfn caller(&self) {\n    self.a();\n    self.b();\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        assert!(run(&ws).is_empty(), "{:?}", run(&ws));
    }

    #[test]
    fn opposite_nesting_is_a_cycle() {
        let src = "fn one(&self) {\n    let q = lock_state(&self.inner);\n    let w = self.workers.lock().unwrap();\n    drop((q, w));\n}\nfn two(&self) {\n    let w = self.workers.lock().unwrap();\n    let q = lock_state(&self.inner);\n    drop((q, w));\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("lock-order cycle")));
    }

    #[test]
    fn unknown_receiver_is_flagged() {
        let src = "fn f(&self) { self.mystery.lock().unwrap(); }\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 1);
        assert!(f[0]
            .message
            .contains("unclassified lock site: receiver `mystery`"));
    }
}
