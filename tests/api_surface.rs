//! The public-API ratchet: every `pub` item has a caller in a program.
//!
//! rustc decides. The test copies the workspace's libraries and binaries
//! to `target/api_surface/`, tags each `pub` `fn`/`const`/`static`/
//! `struct`/`enum`/`trait`/`type` of `crates/*/src`, and each `fn` a `pub
//! trait` declares (keyed `Trait::name`), with `#[deprecated(note =
//! "api_surface_N")] #[allow(api_surface_N)]`, and `cargo check`s the
//! workspace's libraries and binaries, and `benchmark/`. Each warning "use
//! of deprecated …: api_surface_N" is a name-resolved use of item N;
//! "unknown lint" says N was compiled (test and example code is not: only
//! programs are callers, and an `impl` of a trait method is no use). Uses
//! in a `pub use`, and a type's in its own crate's `impl`s of it, do not
//! count (read from rustfmt layout). Paths in strings (serde attributes)
//! are not seen: keep such helpers private. Fields and variants are not
//! swept. An unused item fails unless `tests/api_surface.allow` lists it
//! as `Type::name reason` (`module::name` if free); a bad or stale entry
//! fails too.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const TAG: &str = "api_surface_";
const KINDS: [&str; 7] = ["fn", "const", "static", "struct", "enum", "trait", "type"];
const MODULE_FILES: [&str; 4] = ["mod", "lib", "main", "src"];
const MANIFESTS: [&str; 2] = ["Cargo.toml", "Cargo.lock"];

/// A tagged item: its allow-list key, name, whether it is a type, and
/// where it is defined (`file:line`).
struct Item(String, String, bool, String);

/// Lines that hide uses: a `pub use` item (no names), or an `impl` block
/// with its trait's and self type's names. File, first and last line.
type Block = (PathBuf, usize, usize, Vec<String>);

fn ident(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_alphanumeric() || "_$".contains(c)));
    &s[..end.unwrap_or(s.len())]
}

fn indent(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

/// The kind and name of the `pub` item a line declares, if any.
fn pub_item(line: &str) -> Option<(&'static str, String)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe ", "extern \"C\" "] {
        let next = rest.strip_prefix(qualifier).unwrap_or(rest);
        if qualifier != "const " || next.starts_with("fn ") || next.starts_with("unsafe ") {
            rest = next;
        }
    }
    let word = rest.split(' ').next();
    let kind = KINDS.into_iter().find(|k| word == Some(k))?;
    let rest = rest[kind.len()..].trim_start();
    let name = ident(rest.strip_prefix("mut ").unwrap_or(rest));
    (!name.is_empty()).then(|| (kind, name.to_string()))
}

/// An `impl` line's header without generics (`impl<T> A<T> for B` gives
/// `A for B`), if the line opens an `impl`.
fn impl_header(line: &str) -> Option<String> {
    let mut depth = 0;
    let code = line.trim_start().trim_start_matches("unsafe ").chars();
    let flat = code.filter(|&c| {
        depth += i32::from(c == '<') - i32::from(c == '>');
        depth == 0 && c != '>'
    });
    flat.collect::<String>()
        .strip_prefix("impl ")
        .map(str::to_string)
}

/// The `pub use` items and `impl` blocks of a rustfmt-formatted file.
fn blocks_of(file: &Path, text: &str) -> Vec<Block> {
    let lines: Vec<&str> = text.lines().collect();
    let mut blocks = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let (end, names) = if line.trim_start().starts_with("pub use ") {
            ((i..lines.len()).find(|&j| lines[j].contains(';')), vec![])
        } else if let Some(header) = impl_header(line) {
            let close = format!("{}}}", indent(line));
            let end = (i..lines.len()).find(|&j| lines[j] == close);
            let end = if line.ends_with('}') { Some(i) } else { end };
            let last = |path: &str| Some(ident(path.trim().rsplit("::").next()?).to_string());
            (end, header.split(" for ").filter_map(last).collect())
        } else {
            continue;
        };
        blocks.push((file.to_path_buf(), i + 1, end.unwrap_or(i) + 1, names));
    }
    blocks
}

/// Every file under `dir`, in order, skipping `target` directories.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).into_iter().flatten();
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("an entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() && !path.ends_with("target") {
            files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// Tags every `pub` item of a `crates/*/src` file. An item's key starts
/// with its `impl` block's self type, else its module (a `mod.rs`'s
/// directory, a `lib.rs`'s crate).
fn tag(rel: &Path, text: &str, blocks: &[Block], items: &mut Vec<Item>) -> String {
    let mut module = rel.with_extension("");
    while MODULE_FILES.iter().any(|s| module.ends_with(s)) {
        module.pop();
    }
    let module = module.file_name().and_then(|s| s.to_str()).unwrap_or("");
    let mut tagged = String::with_capacity(text.len() * 2);
    // The open `pub trait` block: its name, method indent and closing line.
    let mut open_trait: Option<(String, String, String)> = None;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        if open_trait.as_ref().is_some_and(|t| line.trim_end() == t.2) {
            open_trait = None;
        }
        let method = open_trait.as_ref().and_then(|(owner, methods, _)| {
            let name = ident(line.strip_prefix(methods.as_str())?.strip_prefix("fn ")?);
            Some((format!("{owner}::{name}"), name.to_string(), false))
        });
        let item = method.or_else(|| {
            let (kind, name) = pub_item(line)?;
            let own = blocks.iter().rfind(|b| b.1 <= i && i < b.2);
            let parent = own.and_then(|b| b.3.last()).map_or(module, String::as_str);
            if kind == "trait" && line.trim_end().ends_with('{') {
                let methods = format!("{}    ", indent(line));
                open_trait = Some((name.clone(), methods, format!("{}}}", indent(line))));
            }
            let is_type = ["struct", "enum", "trait", "type"].contains(&kind);
            Some((format!("{parent}::{name}"), name, is_type))
        });
        let Some((key, name, is_type)) = item else {
            tagged += line;
            continue;
        };
        let at = format!("{}:{}", rel.display(), i + 1);
        let id = items.len();
        items.push(Item(key, name, is_type, at));
        tagged += indent(line);
        tagged += &format!("#[deprecated(note = \"{TAG}{id}\")] #[allow({TAG}{id})] ");
        tagged += line.trim_start();
    }
    tagged
}

/// Copies the sources to `copy`, tagged. A file is written only when its
/// bytes change, so cargo rechecks only what changed since the last run.
fn tagged_copy(root: &Path, copy: &Path) -> (Vec<Item>, Vec<Block>) {
    let mut sources = Vec::new();
    for manifest in MANIFESTS {
        sources.extend([root.join(manifest), root.join("benchmark").join(manifest)]);
    }
    for dir in ["crates", "vendor", "src", "benchmark/src"] {
        files(&root.join(dir), &mut sources);
    }
    let (mut items, mut blocks, mut kept) = (Vec::new(), Vec::new(), BTreeSet::new());
    for path in &sources {
        let rel = path.strip_prefix(root).expect("a source under the root");
        let mut bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if rel.extension().is_some_and(|x| x == "rs") && !rel.starts_with("vendor") {
            let text = String::from_utf8(bytes).expect("UTF-8 source");
            let file_blocks = blocks_of(rel, &text);
            let in_src = rel.starts_with("crates") && rel.iter().nth(2) == Some("src".as_ref());
            let tagged = in_src.then(|| tag(rel, &text, &file_blocks, &mut items));
            bytes = tagged.unwrap_or(text).into_bytes();
            blocks.extend(file_blocks);
        }
        let target = copy.join(rel);
        if fs::read(&target).ok().as_ref() != Some(&bytes) {
            fs::create_dir_all(target.parent().expect("a directory")).expect("copy directory");
            fs::write(&target, bytes).expect("copy written");
        }
        kept.insert(target);
    }
    let mut stale = Vec::new();
    files(copy, &mut stale);
    for path in stale.iter().filter(|p| !kept.contains(*p)) {
        fs::remove_file(path).expect("stale copy removed");
    }
    (items, blocks)
}

/// Runs `cargo check` in `dir` and returns each tag warning as (file
/// relative to `copy`, line, item id, whether it is a use).
fn check(copy: &Path, dir: &Path, targets: &[&str]) -> Vec<(PathBuf, usize, usize, bool)> {
    let output = Command::new(env!("CARGO"))
        .current_dir(dir)
        .args(["check", "--offline", "--locked", "--color", "never"])
        .args(["--message-format", "short"])
        .args(targets)
        .env("CARGO_TARGET_DIR", copy.join("target"))
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env_remove("CARGO_BUILD_RUSTFLAGS")
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "cargo check in {dir:?}:\n{stderr}");
    let parse = |line: &str| {
        let (place, message) = line.split_once(": warning: ")?;
        let id = ident(message.rsplit_once(TAG)?.1).parse().ok()?;
        let mut place = place.rsplitn(3, ':').skip(1);
        let row = place.next()?.parse().ok()?;
        let file = dir.join(place.next()?);
        let file = file.strip_prefix(copy).ok()?.to_path_buf();
        Some((file, row, id, message.starts_with("use of deprecated")))
    };
    stderr.lines().filter_map(parse).collect()
}

#[test]
fn every_public_name_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let copy = root.join("target/api_surface");
    let (items, blocks) = tagged_copy(root, &copy);
    let workspace = ["--workspace", "--lib", "--bins"];
    let mut warnings = check(&copy, &copy, &workspace);
    warnings.extend(check(&copy, &copy.join("benchmark"), &["--bins"]));
    let (mut compiled, mut used) = (BTreeSet::new(), BTreeSet::new());
    for (file, line, id, is_use) in warnings {
        let Item(_, name, is_type, at) = &items[id];
        let same_crate = file.iter().take(2).eq(Path::new(at).iter().take(2));
        let around = |b: &&Block| b.0 == file && b.1 <= line && line <= b.2;
        let hides = |b: &Block| b.3.is_empty() || *is_type && same_crate && b.3.contains(name);
        if !is_use {
            compiled.insert(id);
        } else if !blocks.iter().filter(around).any(hides) {
            used.insert(id);
        }
    }
    assert!(!compiled.is_empty(), "no tagged item was compiled");
    let unused: BTreeMap<&str, &str> = (compiled.difference(&used))
        .map(|&id| (items[id].0.as_str(), items[id].3.as_str()))
        .collect();

    let allow = fs::read_to_string(root.join("tests/api_surface.allow")).expect("the allow list");
    let (mut problems, mut allowed) = (Vec::new(), BTreeSet::new());
    let entries = allow.lines().filter(|l| !l.starts_with('#'));
    for entry in entries.filter(|l| !l.is_empty()) {
        let (key, reason) = entry.split_once(' ').unwrap_or((entry, ""));
        allowed.insert(key);
        let fault = if reason.trim().is_empty() {
            "gives no reason"
        } else if !items.iter().any(|item| item.0 == key) {
            "names no `pub` item: delete it"
        } else if !unused.contains_key(key) {
            "has a caller now: delete it"
        } else {
            continue;
        };
        problems.push(format!("allow entry `{key}` {fault}"));
    }
    for (key, at) in unused.iter().filter(|(key, _)| !allowed.contains(*key)) {
        problems.push(format!("`{key}` ({at}) has no caller in a program"));
    }
    let report = problems.join("\n");
    assert!(report.is_empty(), "delete or allow-list:\n{report}");
}
