//! Every cross-reference into the design documents resolves.
//!
//! Three kinds of citation are checked in every tracked text file:
//!
//! * `DESIGN.md §N` or `§N.M` (and every bare `§N` inside DESIGN.md
//!   itself) must name a numbered DESIGN.md heading;
//! * an `EXPERIMENTS.md` citation followed by a quoted title must quote
//!   words of an EXPERIMENTS.md heading, and `EXPERIMENTS.md, PR N` must
//!   name a heading that names `PR N`;
//! * `ROADMAP item N` must be a numbered ROADMAP.md item.
//!
//! Of the Markdown files at the root, only the documents kept current are
//! scanned; the others are change records or excerpts of outside sources,
//! which may cite sections that have since moved. A citation may wrap
//! across lines, also inside `//`, `//!`, `///` and `#` comments.

use std::path::{Path, PathBuf};
use std::process::Command;

const DESIGN: &str = "DESIGN.md";
const EXPERIMENTS: &str = "EXPERIMENTS.md";
const ROADMAP_ITEM: &str = "ROADMAP item ";
const KEPT_CURRENT: [&str; 5] = [
    "README.md",
    "CONTRIBUTING.md",
    DESIGN,
    EXPERIMENTS,
    "ROADMAP.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The tracked files; outside a git checkout, every file below the root
/// except those in `target/` and `.git/`.
fn tracked_files(root: &Path) -> Vec<PathBuf> {
    let listed = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["ls-files", "-z"])
        .output();
    if let Some(out) = listed.ok().filter(|o| o.status.success()) {
        return String::from_utf8_lossy(&out.stdout)
            .split('\0')
            .filter(|p| !p.is_empty())
            .map(|p| root.join(p))
            .collect();
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != ".git" && name != "target" {
                    dirs.push(path);
                }
            } else {
                files.push(path);
            }
        }
    }
    files
}

/// A file's text with wrapped lines joined by one space (leading
/// whitespace and comment markers dropped), and the offset each line
/// starts at in it.
struct Joined {
    text: String,
    starts: Vec<usize>,
}

impl Joined {
    fn new(source: &str) -> Self {
        let mut text = String::new();
        let mut starts = Vec::new();
        for (i, line) in source.lines().enumerate() {
            let mut line = line.trim_start();
            if i > 0 {
                for marker in ["//!", "///", "//", "#"] {
                    if let Some(rest) = line.strip_prefix(marker) {
                        line = rest.trim_start();
                        break;
                    }
                }
                text.push(' ');
            }
            starts.push(text.len());
            text.push_str(line);
        }
        Self { text, starts }
    }

    /// The 1-based line that `offset` falls on.
    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

/// The section number a DESIGN.md heading carries: `## 2. …` → `2`,
/// `### 2.1 …` → `2.1`.
fn section_number(heading: &str) -> Option<String> {
    let rest = heading.trim_start_matches('#').trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    let number = rest[..end].trim_end_matches('.');
    (!number.is_empty()).then(|| number.to_string())
}

fn headings(doc: &str) -> Vec<&str> {
    doc.lines().filter(|l| l.starts_with('#')).collect()
}

/// `§N` or `§N.M` at the start of `s`: the number and its byte length.
fn section_ref(s: &str) -> Option<(&str, usize)> {
    let body = s.strip_prefix('§')?;
    let digits = |t: &str| t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len());
    let mut end = digits(body);
    if end == 0 {
        return None;
    }
    if let Some(sub) = body[end..].strip_prefix('.') {
        let n = digits(sub);
        if n > 0 {
            end += 1 + n;
        }
    }
    Some((&body[..end], '§'.len_utf8() + end))
}

/// The `§` references of a list such as `§6/§11/§14` or `§2.1–§2.3` at
/// the start of `s`.
fn section_list(mut s: &str) -> Vec<&str> {
    let mut refs = Vec::new();
    while let Some((number, len)) = section_ref(s) {
        refs.push(number);
        s = &s[len..];
        let next = s.trim_start_matches(['/', '–', '-', ',', ' ']);
        let next = ["and ", "or "]
            .iter()
            .find_map(|w| next.strip_prefix(w))
            .unwrap_or(next);
        if !next.starts_with('§') {
            break;
        }
        s = next;
    }
    refs
}

/// A leading `PR N` in `s`, as the number.
fn pr_number(s: &str) -> Option<&str> {
    let digits = s.strip_prefix("PR ")?;
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    (end > 0).then(|| &digits[..end])
}

fn names_pr(heading: &str, number: &str) -> bool {
    heading
        .match_indices("PR ")
        .any(|(i, _)| pr_number(&heading[i..]) == Some(number))
}

#[derive(Default)]
struct Found {
    design: usize,
    experiments: usize,
    roadmap: usize,
    broken: Vec<String>,
}

struct Targets {
    sections: Vec<String>,
    experiment_headings: Vec<String>,
    roadmap_items: Vec<String>,
}

impl Targets {
    fn read(root: &Path) -> Self {
        let read = |name: &str| std::fs::read_to_string(root.join(name)).unwrap();
        let design = read(DESIGN);
        let experiments = read(EXPERIMENTS);
        let roadmap = read("ROADMAP.md");
        Self {
            sections: headings(&design)
                .into_iter()
                .filter_map(section_number)
                .collect(),
            experiment_headings: headings(&experiments)
                .into_iter()
                .map(|h| h.trim_start_matches('#').trim().to_string())
                .collect(),
            roadmap_items: roadmap
                .lines()
                .filter_map(|l| l.split_once(". "))
                .map(|(n, _)| n)
                .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
                .map(str::to_string)
                .collect(),
        }
    }

    /// Checks every citation in one file's text.
    fn check(&self, file: &str, source: &str, found: &mut Found) {
        let joined = Joined::new(source);
        let text = joined.text.as_str();
        let broken =
            |offset: usize, what: String| format!("{file}:{}: {what}", joined.line_of(offset));

        let mut design_refs = Vec::new();
        if file == DESIGN {
            for (i, _) in text.match_indices('§') {
                if let Some((number, _)) = section_ref(&text[i..]) {
                    design_refs.push((i, number));
                }
            }
        }
        for (i, _) in text.match_indices(DESIGN) {
            let after = &text[i + DESIGN.len()..];
            let list = after.trim_start_matches([' ', ',']);
            if list.len() < after.len() {
                design_refs.extend(section_list(list).into_iter().map(|n| (i, n)));
            }
        }
        for (offset, number) in design_refs {
            found.design += 1;
            if !self.sections.iter().any(|s| s == number) {
                let what = format!("DESIGN.md has no heading §{number}");
                found.broken.push(broken(offset, what));
            }
        }

        for (i, _) in text.match_indices(EXPERIMENTS) {
            let after = &text[i + EXPERIMENTS.len()..];
            let cited = after.trim_start_matches([' ', ',']);
            if cited.len() == after.len() {
                continue;
            }
            if let Some(quoted) = cited.strip_prefix('"') {
                let title = quoted.split('"').next().unwrap_or(quoted).to_lowercase();
                found.experiments += 1;
                if !self
                    .experiment_headings
                    .iter()
                    .any(|h| h.to_lowercase().contains(&title))
                {
                    let what = format!("no EXPERIMENTS.md heading contains \"{title}\"");
                    found.broken.push(broken(i, what));
                }
            } else if let Some(number) = pr_number(cited) {
                found.experiments += 1;
                if !self.experiment_headings.iter().any(|h| names_pr(h, number)) {
                    let what = format!("no EXPERIMENTS.md heading names PR {number}");
                    found.broken.push(broken(i, what));
                }
            }
        }

        for (i, _) in text.match_indices(ROADMAP_ITEM) {
            let digits = &text[i + ROADMAP_ITEM.len()..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            if end == 0 {
                continue;
            }
            found.roadmap += 1;
            let number = &digits[..end];
            if !self.roadmap_items.iter().any(|n| n == number) {
                let what = format!("ROADMAP.md has no item {number}");
                found.broken.push(broken(i, what));
            }
        }
    }
}

#[test]
fn every_design_experiments_and_roadmap_citation_resolves() {
    let root = root();
    let targets = Targets::read(&root);
    let mut found = Found::default();
    for path in tracked_files(&root) {
        let name = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let root_doc = !name.contains('/') && name.ends_with(".md");
        if root_doc && !KEPT_CURRENT.contains(&name.as_str()) {
            continue;
        }
        // Binary and non-UTF-8 files cite nothing.
        if let Ok(source) = std::fs::read_to_string(&path) {
            targets.check(&name, &source, &mut found);
        }
    }
    assert!(
        found.broken.is_empty(),
        "{} broken citation(s):\n{}",
        found.broken.len(),
        found.broken.join("\n")
    );
    // A scan that recognises nothing would pass vacuously.
    assert!(
        found.design > 50,
        "only {} DESIGN.md citations",
        found.design
    );
    assert!(found.experiments > 0 && found.roadmap > 0);
}

#[test]
fn citation_forms_parse() {
    assert_eq!(section_list("§6/§11/§14 is"), ["6", "11", "14"]);
    assert_eq!(section_list("§2.1–§2.3`"), ["2.1", "2.3"]);
    assert_eq!(section_list("§17. Next"), ["17"]);
    assert_eq!(section_list("§III-B"), Vec::<&str>::new());
    assert_eq!(section_number("### 2.1 Corpus"), Some("2.1".into()));
    assert_eq!(section_number("## 17. Executor"), Some("17".into()));
    assert_eq!(section_number("# DESIGN"), None);
    assert!(names_pr("The executor (PR 17)", "17"));
    assert!(!names_pr("The executor (PR 17)", "1"));
    let joined = Joined::new("see DESIGN.md\n    //! §16 and ROADMAP\n# item 4");
    assert_eq!(joined.text, "see DESIGN.md §16 and ROADMAP item 4");
    assert_eq!(joined.line_of(joined.text.find('§').unwrap()), 2);
    assert_eq!(joined.line_of(joined.text.find('4').unwrap()), 3);
}
