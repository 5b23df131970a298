//! fingerprint-coverage: every field of a registered config/workload
//! struct must be written into its fingerprint function.
//!
//! The memo caches key on 128-bit content fingerprints. A field that is
//! added to a config struct but not to the corresponding fingerprint
//! impl silently *aliases*: two configs differing only in that field
//! hash identically and the memo serves one's artifacts for the other —
//! a wrong-results bug that no unit test of either config catches. This
//! pass makes that a lint error at the field's declaration line.
//!
//! Registered pairs (struct → fingerprint fn) live in [`REGISTRY`].
//! Structs absent from the scanned file set are skipped, so the pass
//! works on fixture subtrees and partial scans. The check itself is
//! name-coverage: each named field's identifier must occur in the
//! fingerprint fn's body. That over-approximates (a comment-free
//! mention in dead code would count) but never under-approximates on
//! idiomatic `h.write_*(self.field)` bodies.

use std::collections::HashSet;

use crate::findings::Finding;
use crate::lexer::Token;
use crate::workspace::{next_brace_block, SourceFile, Workspace};

/// Struct name → function that must cover its fields.
const REGISTRY: [(&str, &str); 5] = [
    ("Workload", "fingerprint"),
    ("Layout", "restricted_fingerprint"),
    ("MachineConfig", "machine_fingerprint"),
    ("CacheConfig", "machine_fingerprint"),
    ("BusConfig", "machine_fingerprint"),
];

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(struct_name, fn_name) in &REGISTRY {
        for file in &ws.files {
            let Some(fields) = struct_fields(file, struct_name) else {
                continue;
            };
            let Some(covered) = fn_body_idents(ws, file, struct_name, fn_name) else {
                // The struct exists but its fingerprint fn is nowhere:
                // nothing covers any field, which is worse than one gap.
                let line = struct_decl_line(file, struct_name).unwrap_or(1);
                findings.push(Finding::error(
                    "fingerprint-coverage",
                    &file.path,
                    line,
                    format!("struct `{struct_name}` is registered for fingerprint coverage but no `fn {fn_name}` was found in the scanned files"),
                ));
                continue;
            };
            for (name, line) in fields {
                if !covered.contains(&name) {
                    findings.push(Finding::error(
                        "fingerprint-coverage",
                        &file.path,
                        line,
                        format!("field `{name}` of `{struct_name}` is never written into `{fn_name}` — configs differing only in `{name}` would alias in the memo cache"),
                    ));
                }
            }
        }
    }
    findings
}

/// Line of `struct <name>` in `file`, ignoring test code.
fn struct_decl_line(file: &SourceFile, name: &str) -> Option<u32> {
    let t = &file.tokens;
    (0..t.len().saturating_sub(1))
        .find(|&i| {
            t[i].is_ident("struct") && t[i + 1].is_ident(name) && !file.in_test_code(t[i].line)
        })
        .map(|i| t[i].line)
}

/// Named fields of `struct <name> { … }` in `file` as (name, line).
/// Returns `None` when the struct is not defined here (or is tuple /
/// unit shaped — nothing to cover by name).
fn struct_fields(file: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let t = &file.tokens;
    let at = (0..t.len().saturating_sub(1)).find(|&i| {
        t[i].is_ident("struct") && t[i + 1].is_ident(name) && !file.in_test_code(t[i].line)
    })?;
    // The body must open before any `;` (tuple/unit structs end in one;
    // `where` clauses carry no braces, so scanning forward is safe).
    let mut j = at + 2;
    while j < t.len() && !t[j].is_punct('{') {
        if t[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    let (open, close) = next_brace_block(t, j)?;
    Some(fields_in_body(t, open, close))
}

/// Extracts `ident :` field declarations at top nesting level of a
/// struct body, skipping visibility modifiers, attributes, and each
/// field's type (with angle-bracket tracking; `->` arrows are not
/// closers).
fn fields_in_body(t: &[Token], open: usize, close: usize) -> Vec<(String, u32)> {
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip attributes on the field.
        while i < close && t[i].is_punct('#') {
            i = skip_group(t, i + 1, '[', ']', close);
        }
        // Skip `pub`, `pub(crate)`, `pub(super)`, …
        if i < close && t[i].is_ident("pub") {
            i += 1;
            if i < close && t[i].is_punct('(') {
                i = skip_group(t, i, '(', ')', close);
            }
        }
        if i >= close {
            break;
        }
        let Some(name) = t[i].ident() else {
            i += 1;
            continue;
        };
        if i + 1 < close && t[i + 1].is_punct(':') {
            fields.push((name.to_string(), t[i].line));
        }
        // Consume through the field's type to the `,` at level 0.
        let mut depth = 0i32;
        let mut angle = 0i32;
        i += 1;
        while i < close {
            let tok = &t[i];
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                depth -= 1;
            } else if tok.is_punct('<') {
                angle += 1;
            } else if tok.is_punct('>') && !(i > 0 && t[i - 1].is_punct('-')) {
                angle -= 1;
            } else if tok.is_punct(',') && depth == 0 && angle <= 0 {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    fields
}

/// Skips a bracketed group whose opener is at `i` (or the first opener
/// at/after `i`); returns the index one past its closer, capped at
/// `limit`.
fn skip_group(t: &[Token], i: usize, open: char, close_c: char, limit: usize) -> usize {
    let mut j = i;
    while j < limit && !t[j].is_punct(open) {
        j += 1;
    }
    let mut depth = 0i32;
    while j < limit {
        if t[j].is_punct(open) {
            depth += 1;
        } else if t[j].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    limit
}

/// Identifier set of the body of `fn <fn_name>`, resolved in priority
/// order: inside an `impl … <struct_name> …` block of the struct's own
/// file, then anywhere in that file, then workspace-wide (all matches
/// unioned — in this workspace every registered fn name resolves to a
/// single definition; fixtures shadow it only when scanned alone).
fn fn_body_idents(
    ws: &Workspace,
    home: &SourceFile,
    struct_name: &str,
    fn_name: &str,
) -> Option<HashSet<String>> {
    if let Some(set) = fn_in_impl_of(home, struct_name, fn_name) {
        return Some(set);
    }
    if let Some(set) = fn_anywhere(home, fn_name) {
        return Some(set);
    }
    let mut merged: Option<HashSet<String>> = None;
    for file in &ws.files {
        if let Some(set) = fn_anywhere(file, fn_name) {
            merged.get_or_insert_with(HashSet::new).extend(set);
        }
    }
    merged
}

/// `fn <fn_name>` inside an impl block whose header names
/// `struct_name`.
fn fn_in_impl_of(file: &SourceFile, struct_name: &str, fn_name: &str) -> Option<HashSet<String>> {
    let t = &file.tokens;
    let mut i = 0;
    while i < t.len() {
        if !t[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let (open, close) = match next_brace_block(t, i) {
            Some(b) => b,
            None => break,
        };
        let names_struct = t[i..open].iter().any(|tok| tok.is_ident(struct_name));
        if names_struct {
            if let Some(at) = find_fn(t, fn_name, i, close) {
                let (bo, bc) = next_brace_block(t, at)?;
                return Some(ident_set(&t[bo..=bc]));
            }
        }
        i = close + 1;
    }
    None
}

/// `fn <fn_name>` anywhere in the file (test code excluded).
fn fn_anywhere(file: &SourceFile, fn_name: &str) -> Option<HashSet<String>> {
    let t = &file.tokens;
    let at = find_fn(t, fn_name, 0, t.len())?;
    if file.in_test_code(t[at].line) {
        return None;
    }
    let (bo, bc) = next_brace_block(t, at)?;
    Some(ident_set(&t[bo..=bc]))
}

fn find_fn(t: &[Token], fn_name: &str, from: usize, to: usize) -> Option<usize> {
    (from..to.min(t.len()).saturating_sub(1))
        .find(|&k| t[k].is_ident("fn") && t[k + 1].is_ident(fn_name))
}

fn ident_set(tokens: &[Token]) -> HashSet<String> {
    tokens
        .iter()
        .filter_map(|t| t.ident().map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    #[test]
    fn missing_field_write_is_flagged_at_the_field_line() {
        let src = "pub struct BusConfig {\n    pub occupancy_cycles: u64,\n    pub burst_len: u32,\n}\npub fn machine_fingerprint(b: &BusConfig) -> u64 {\n    hash(b.occupancy_cycles)\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("burst_len"));
    }

    #[test]
    fn full_coverage_is_clean() {
        let src = "pub struct CacheConfig {\n    pub size_bytes: usize,\n    pub line_bytes: usize,\n}\nimpl CacheConfig {}\npub fn machine_fingerprint(c: &CacheConfig) -> u64 {\n    hash(c.size_bytes) ^ hash(c.line_bytes)\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn unregistered_structs_are_ignored() {
        let src = "pub struct Unregistered {\n    pub anything: u32,\n}\n";
        let ws = Workspace::from_sources(&[("m.rs", src)]);
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn missing_fingerprint_fn_is_one_finding_at_the_struct() {
        let src = "pub struct Layout {\n    pub bases: Vec<u64>,\n}\n";
        let ws = Workspace::from_sources(&[("l.rs", src)]);
        let f = run(&ws);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("no `fn restricted_fingerprint`"));
    }

    #[test]
    fn impl_block_resolution_beats_free_fn() {
        // A decoy free `fn restricted_fingerprint` that covers nothing
        // must not be preferred over Layout's own impl.
        let src = "pub struct Layout {\n    pub bases: Vec<u64>,\n}\nimpl Layout {\n    pub fn restricted_fingerprint(&self) -> u64 { hash(self.bases.as_slice()) }\n}\nfn restricted_fingerprint() -> u64 { 0 }\n";
        let ws = Workspace::from_sources(&[("l.rs", src)]);
        assert!(run(&ws).is_empty(), "{:?}", run(&ws));
    }

    #[test]
    fn generic_field_types_do_not_split_fields() {
        let src = "pub struct Workload {\n    pub name: String,\n    pub fp: OnceLock<Fingerprint>,\n    pub tasks: Vec<Task>,\n}\nimpl Workload {\n    pub fn fingerprint(&self) -> u64 { h(self.name, self.fp, self.tasks) }\n}\n";
        let ws = Workspace::from_sources(&[("w.rs", src)]);
        assert!(run(&ws).is_empty(), "{:?}", run(&ws));
    }
}
