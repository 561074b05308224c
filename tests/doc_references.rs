//! Drift check for the documentation: every binary a doc tells you to
//! run (`--bin <name>`) must exist, and every `results/<file>` a doc
//! cites must be in `results/`. Deleting a binary or a result without
//! updating the docs fails here.

use std::path::Path;

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
