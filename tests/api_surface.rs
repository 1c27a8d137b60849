//! The public-API ratchet: every `pub` item has a caller.
//!
//! The test collects each `pub` `fn`, `const`, `static`, `struct`,
//! `enum`, `trait` and `type` name defined in the non-test code of
//! `crates/*/src`. It fails on any name that occurs as a word nowhere in
//! the non-test code of `crates/*/src`, `src/`, `examples/` and
//! `benchmark/src` beyond its own definitions, unless
//! `tests/api_surface.allow` lists the name with a reason. An allow
//! entry whose name has gained a caller, or lost its definition, fails
//! too, so the list only shrinks.
//!
//! Non-test code is the source with two things removed:
//! - comments, so doc links and doctests are not callers;
//! - each item that follows a `#[cfg(test)]`: a `mod x;` line together
//!   with the file it includes, or the next field, variant, statement
//!   or brace-balanced block.
//!
//! String literals stay, because a serde attribute names its default
//! function in one.
//!
//! The scan is name-level, not name-resolved: items that share a name
//! (`new`, `run`, `winning_architecture`) count each other's uses, and a
//! `pub use` re-export counts as a use of what it re-exports, so a dead
//! item with a shared or re-exported name passes. A pass means "no dead
//! item with a name of its own", not "every item is used".

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Item kinds whose `pub` names the ratchet collects.
const KINDS: [&str; 7] = ["fn", "const", "static", "struct", "enum", "trait", "type"];

/// One source file with comments and test items blanked out (newlines
/// kept).
struct Source {
    path: PathBuf,
    /// The non-test code, string literals included.
    text: String,
    /// Module files a `#[cfg(test)] mod x;` in this file includes.
    test_modules: Vec<PathBuf>,
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Code,
    Str,
    Comment,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Marks each byte of `src` as code, string literal or comment.
fn classify(src: &[u8]) -> Vec<Class> {
    let n = src.len();
    let mut class = vec![Class::Code; n];
    let at = |i: usize| src.get(i).copied().unwrap_or(0);
    let mut i = 0;
    while i < n {
        let c = src[i];
        let start = i;
        let kind = if c == b'/' && at(i + 1) == b'/' {
            while i < n && src[i] != b'\n' {
                i += 1;
            }
            Class::Comment
        } else if c == b'/' && at(i + 1) == b'*' {
            let mut depth = 0;
            loop {
                if i >= n {
                    break;
                } else if src[i] == b'/' && at(i + 1) == b'*' {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && at(i + 1) == b'/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            Class::Comment
        } else if c == b'"' {
            i += 1;
            while i < n && src[i] != b'"' {
                i += if src[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
            Class::Str
        } else if (c == b'r' || c == b'b') && (start == 0 || !is_ident(src[start - 1])) {
            // r"…", r#"…"#, br"…" or b"…"; anything else is an identifier.
            let mut j = i + usize::from(c == b'b');
            let raw = at(j) == b'r';
            j += usize::from(raw);
            let hashes = src[j.min(n)..].iter().take_while(|&&b| b == b'#').count();
            if at(j + hashes) != b'"' || (!raw && hashes > 0) {
                i += 1;
                continue;
            }
            i = j + hashes + 1;
            loop {
                if i >= n {
                    break;
                } else if raw
                    && src[i] == b'"'
                    && src[i + 1..].iter().take(hashes).all(|&b| b == b'#')
                {
                    i += 1 + hashes;
                    break;
                } else if !raw && src[i] == b'\\' {
                    i += 2;
                } else if !raw && src[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            Class::Str
        } else if c == b'\'' {
            // A char literal ('x', '\n', '—'), else a lifetime.
            let width = match at(i + 1) {
                b'\\' => 0,
                b if b < 0x80 => 1,
                b if b < 0xE0 => 2,
                b if b < 0xF0 => 3,
                _ => 4,
            };
            if width == 0 {
                i += 3;
                while i < n && src[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 1 + width) == b'\'' {
                i += width + 2;
            } else {
                i += 1;
                continue;
            }
            Class::Str
        } else {
            i += 1;
            continue;
        };
        let end = i.min(n);
        class[start..end].fill(kind);
    }
    class
}

/// The end of the item that starts at `from`: after its `;`, its `,`
/// (a field, variant or match arm) or its brace-balanced block, or at an
/// unmatched `}` that closes the enclosing block.
fn item_end(src: &[u8], class: &[Class], from: usize) -> usize {
    let (mut depth, mut angle, mut i) = (0i32, 0i32, from);
    let code = |i: usize| class[i] == Class::Code;
    // Further attributes on the same item.
    loop {
        while i < src.len() && src[i].is_ascii_whitespace() {
            i += 1;
        }
        if i + 1 < src.len() && src[i] == b'#' && src[i + 1] == b'[' {
            let mut d = 0;
            while i < src.len() {
                if code(i) && src[i] == b'[' {
                    d += 1;
                } else if code(i) && src[i] == b']' {
                    d -= 1;
                    if d == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        } else {
            break;
        }
    }
    while i < src.len() {
        if !code(i) {
            i += 1;
            continue;
        }
        match src[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'<' if depth == 0 => angle += 1,
            b'>' if depth == 0 && angle > 0 && !matches!(src[i - 1], b'-' | b'=') => angle -= 1,
            b';' if depth == 0 => return i + 1,
            b',' if depth == 0 && angle == 0 => return i + 1,
            b'}' if depth == 0 => return i,
            b'{' if depth == 0 => {
                let mut d = 0;
                while i < src.len() {
                    if code(i) && src[i] == b'{' {
                        d += 1;
                    } else if code(i) && src[i] == b'}' {
                        d -= 1;
                        if d == 0 {
                            return i + 1;
                        }
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    src.len()
}

/// Blanks `range` of `out`, keeping newlines so positions stay put.
fn blank(out: &mut [u8], range: std::ops::Range<usize>) {
    for b in &mut out[range] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// The identifier-like words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The word just after the `mod` keyword of a `mod x;` item.
fn declared_module(item: &str) -> Option<&str> {
    let item = item.trim();
    if !item.ends_with(';') {
        return None;
    }
    let mut words = words(item);
    words.find(|w| *w == "mod")?;
    words.next()
}

fn read_source(path: &Path) -> Source {
    let raw = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let src = raw.as_bytes();
    let class = classify(src);
    let mut text = src.to_vec();
    let mut test_modules = Vec::new();
    for (i, &c) in class.iter().enumerate() {
        if c == Class::Comment {
            blank(&mut text, i..i + 1);
        }
    }
    // Items gated on `cfg(test)`.
    const GATE: &[u8] = b"#[cfg(test)]";
    let mut i = 0;
    while let Some(off) = text[i..].windows(GATE.len()).position(|w| w == GATE) {
        let start = i + off;
        if class[start] != Class::Code {
            i = start + 1;
            continue;
        }
        let end = item_end(src, &class, start + GATE.len());
        let item = String::from_utf8_lossy(&text[start + GATE.len()..end]).into_owned();
        if let Some(module) = declared_module(&item) {
            let dir = path.parent().expect("a source file has a directory");
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            let base = if matches!(stem, "mod" | "lib" | "main") {
                dir.to_path_buf()
            } else {
                dir.join(stem)
            };
            test_modules.push(base.join(format!("{module}.rs")));
            test_modules.push(base.join(module));
        }
        blank(&mut text, start..end);
        i = end;
    }
    Source {
        path: path.to_path_buf(),
        text: String::from_utf8_lossy(&text).into_owned(),
        test_modules,
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("a directory entry").path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every non-test source file the ratchet reads, each with whether it
/// may define collected items (`crates/*/src`).
fn sources(root: &Path) -> Vec<(Source, bool)> {
    let mut defining = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let mut crates: Vec<PathBuf> = crates.map(|e| e.expect("a crate entry").path()).collect();
    crates.sort();
    for krate in crates {
        if krate.join("src").is_dir() {
            rust_files(&krate.join("src"), &mut defining);
        }
    }
    let mut using = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut using);
    }
    let all: Vec<(Source, bool)> = defining
        .iter()
        .map(|p| (read_source(p), true))
        .chain(using.iter().map(|p| (read_source(p), false)))
        .collect();
    let gated: Vec<PathBuf> = all
        .iter()
        .flat_map(|(s, _)| s.test_modules.clone())
        .collect();
    all.into_iter()
        .filter(|(s, _)| !gated.iter().any(|g| s.path.starts_with(g)))
        .collect()
}

/// The `pub` item names `code` defines. `pub(crate)` and narrower are
/// the compiler's to check: their next word is `crate`, `super`, … and
/// not an item kind.
fn pub_items(code: &str) -> Vec<String> {
    let toks: Vec<&str> = words(code).collect();
    let mut names = Vec::new();
    for (i, _) in toks.iter().enumerate().filter(|(_, t)| **t == "pub") {
        let mut j = i + 1;
        while let Some(&t) = toks.get(j) {
            let const_fn = t == "const"
                && toks
                    .get(j + 1)
                    .is_some_and(|n| ["fn", "unsafe", "async", "extern"].contains(n));
            if const_fn || ["unsafe", "async", "extern"].contains(&t) {
                j += 1;
            } else {
                break;
            }
        }
        let Some(&kind) = toks.get(j) else { continue };
        if !KINDS.contains(&kind) {
            continue;
        }
        j += 1;
        if kind == "static" && toks.get(j) == Some(&"mut") {
            j += 1;
        }
        if let Some(name) = toks.get(j) {
            names.push((*name).to_string());
        }
    }
    names
}

/// The allow list: one `Path::name reason` per line, `#` lines and blank
/// lines ignored. Keyed by the last path segment.
fn allow_list(root: &Path) -> Vec<(String, String, String)> {
    let text = fs::read_to_string(root.join("tests/api_surface.allow"))
        .expect("tests/api_surface.allow is readable");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (path, reason) = l.split_once(char::is_whitespace).unwrap_or((l, ""));
            let name = path.rsplit("::").next().unwrap_or(path).to_string();
            (name, path.to_string(), reason.trim().to_string())
        })
        .collect()
}

#[test]
fn every_public_name_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);
    let mut defined: HashMap<String, (usize, PathBuf)> = HashMap::new();
    for (source, _) in sources.iter().filter(|(_, defines)| *defines) {
        for name in pub_items(&source.text) {
            defined.entry(name).or_insert((0, source.path.clone())).0 += 1;
        }
    }
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (source, _) in &sources {
        for word in words(&source.text) {
            *counts.entry(word).or_default() += 1;
        }
    }
    let callers = |name: &str| counts.get(name).copied().unwrap_or(0) - defined[name].0;

    let allow = allow_list(root);
    let mut problems = Vec::new();
    let mut allowed = HashSet::new();
    for (name, path, reason) in &allow {
        allowed.insert(name.as_str());
        if reason.is_empty() {
            problems.push(format!("allow entry `{path}` gives no reason"));
        } else if !defined.contains_key(name) {
            problems.push(format!(
                "allow entry `{path}` names no `pub` item: delete the entry"
            ));
        } else if callers(name) > 0 {
            problems.push(format!(
                "allow entry `{path}` now has a caller: delete the entry"
            ));
        }
    }
    let mut dead: Vec<(&String, &PathBuf)> = defined
        .iter()
        .filter(|(name, _)| callers(name) == 0 && !allowed.contains(name.as_str()))
        .map(|(name, (_, path))| (name, path))
        .collect();
    dead.sort();
    for (name, path) in dead {
        let path = path.strip_prefix(root).unwrap_or(path);
        problems.push(format!(
            "`{name}` ({}) has no caller outside tests: delete it, or list it in tests/api_surface.allow with a reason",
            path.display()
        ));
    }
    assert!(
        problems.is_empty(),
        "{} API surface problem(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}
