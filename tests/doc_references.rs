//! Drift check for the documentation: every binary a doc tells you to
//! run (`--bin <name>`) must exist, and every `results/<file>` a doc
//! cites must be in `results/`. Deleting a binary or a result without
//! updating the docs fails here. The `ANTIDOTE_*` knob allowlist, the
//! README's Configuration table and the knobs the sources read are
//! checked against each other the same way.

use antidote_obs::env::KNOWN_KNOBS;
use std::path::{Path, PathBuf};

const DOCS: [(&str, &str); 7] = [
    ("README.md", include_str!("../README.md")),
    ("DESIGN.md", include_str!("../DESIGN.md")),
    ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
    (
        ".claude/skills/verify/SKILL.md",
        include_str!("../.claude/skills/verify/SKILL.md"),
    ),
    ("scripts/tier1.sh", include_str!("../scripts/tier1.sh")),
    (
        ".github/workflows/ci.yml",
        include_str!("../.github/workflows/ci.yml"),
    ),
    (
        "crates/bench/src/lib.rs",
        include_str!("../crates/bench/src/lib.rs"),
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The word (identifier or path characters) following each occurrence
/// of `marker`.
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    text.match_indices(marker)
        .map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || "_-.,{}*".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].trim_end_matches(['.', ','])
        })
        .collect()
}

/// Expands `{a,b}` groups: `x.{json,txt}` → `x.json`, `x.txt`.
fn expand_braces(word: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (word.find('{'), word.find('}')) else {
        return vec![word.to_string()];
    };
    if close < open {
        return vec![word.to_string()];
    }
    word[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &word[..open], &word[close + 1..])))
        .collect()
}

/// `*` matches any run of characters; everything else literally.
fn glob_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (0..=name.len() - head.len())
                    .any(|skip| glob_matches(tail, &name[head.len() + skip..]))
        }
    }
}

#[test]
fn docs_name_only_binaries_that_exist() {
    let mut missing = Vec::new();
    for (doc, text) in DOCS {
        for name in words_after(text, "--bin ") {
            let exists = std::fs::read_dir(root().join("crates"))
                .unwrap()
                .any(|krate| {
                    krate
                        .unwrap()
                        .path()
                        .join(format!("src/bin/{name}.rs"))
                        .exists()
                });
            if !exists {
                missing.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name binaries that do not exist: {missing:?}"
    );
}

#[test]
fn docs_cite_only_results_that_exist() {
    let present: Vec<String> = std::fs::read_dir(root().join("results"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let mut missing = Vec::new();
    for (doc, text) in DOCS {
        for word in words_after(text, "results/") {
            // `results/` alone, or a placeholder like `results/<name>.json`.
            if word.is_empty() {
                continue;
            }
            for file in expand_braces(word) {
                if !present.iter().any(|p| glob_matches(&file, p)) {
                    missing.push(format!("{doc}: results/{file}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs cite results that do not exist: {missing:?}"
    );
}

#[test]
fn the_extractors_understand_the_doc_idioms() {
    let text = "run `cargo run -p antidote-bench --bin table1 --release`, see \
                results/{fig2,fig3}.{json,txt} and results/table1.* or results/<name>.json.";
    assert_eq!(words_after(text, "--bin "), vec!["table1"]);
    let cited: Vec<String> = words_after(text, "results/")
        .into_iter()
        .flat_map(expand_braces)
        .collect();
    assert_eq!(
        cited,
        [
            "fig2.json",
            "fig2.txt",
            "fig3.json",
            "fig3.txt",
            "table1.*",
            ""
        ]
    );
    assert!(glob_matches("table1.*", "table1.json"));
    assert!(!glob_matches("table1.*", "fig2.json"));
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The non-test code lines of every `crates/*/src` file, by path. A line
/// is test code from its file's first `#[cfg(test)]` on (the rule
/// `scripts/loc` counts by); comment lines are dropped.
fn crate_source_lines() -> Vec<(PathBuf, Vec<String>)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let lines = text
                .lines()
                .take_while(|l| l.trim() != "#[cfg(test)]")
                .filter(|l| !l.trim_start().starts_with("//"))
                .map(str::to_string)
                .collect();
            (path, lines)
        })
        .collect()
}

/// Every complete `"ANTIDOTE_…"` string literal in `line`.
fn knob_literals(line: &str) -> Vec<&str> {
    line.match_indices("\"ANTIDOTE_")
        .filter_map(|(at, _)| {
            let rest = &line[at + 1..];
            let end = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            rest[end..].starts_with('"').then(|| &rest[..end])
        })
        .collect()
}

#[test]
fn readme_configuration_table_lists_exactly_the_known_knobs() {
    let readme = DOCS[0].1;
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Configuration"))
        .expect("README has a Configuration section");
    let mut table: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `ANTIDOTE_"))
        .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
        .collect();
    let mut known: Vec<&str> =
        KNOWN_KNOBS.iter().map(|k| k.trim_start_matches("ANTIDOTE_")).collect();
    table.sort_unstable();
    known.sort_unstable();
    assert_eq!(table, known, "README Configuration table vs KNOWN_KNOBS");
}

#[test]
fn sources_read_exactly_the_known_knobs() {
    let env_rs = root().join("crates/obs/src/env.rs");
    let mut read = Vec::new();
    let mut unknown = Vec::new();
    for (path, lines) in crate_source_lines() {
        if path == env_rs {
            continue;
        }
        for line in &lines {
            for knob in knob_literals(line) {
                if let Some(known) = KNOWN_KNOBS.iter().find(|k| **k == knob) {
                    read.push(*known);
                } else if !knob.starts_with("ANTIDOTE_TEST_") {
                    unknown.push(format!("{}: {knob}", path.display()));
                }
            }
        }
    }
    let unread: Vec<&&str> = KNOWN_KNOBS.iter().filter(|k| !read.contains(k)).collect();
    assert!(unread.is_empty(), "KNOWN_KNOBS entries no source reads: {unread:?}");
    assert!(unknown.is_empty(), "knobs missing from KNOWN_KNOBS: {unknown:?}");
}

#[test]
fn every_binary_applies_the_obs_knobs() {
    let bins: Vec<(PathBuf, Vec<String>)> = crate_source_lines()
        .into_iter()
        .filter(|(path, _)| path.parent().is_some_and(|dir| dir.ends_with("src/bin")))
        .collect();
    assert!(bins.len() >= 6, "expected the repro binaries and convert: {bins:?}");
    let silent: Vec<String> = bins
        .iter()
        .filter(|(_, lines)| !lines.iter().any(|l| l.contains("init_from_env()")))
        .map(|(path, _)| path.display().to_string())
        .collect();
    assert!(silent.is_empty(), "binaries that never call init_from_env: {silent:?}");
}

#[test]
fn knob_literal_extraction() {
    let line = r#"env("ANTIDOTE_THREADS") + "ANTIDOTE_{x}" + "ANTIDOTE_A_1","ANTIDOTE_""#;
    assert_eq!(knob_literals(line), ["ANTIDOTE_THREADS", "ANTIDOTE_A_1", "ANTIDOTE_"]);
}
