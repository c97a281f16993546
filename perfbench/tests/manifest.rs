//! `BENCHMARK.json` and `README.md` agree with the metrics the benchmark
//! prints.

use std::fs;
use std::path::Path;

use abe_perfbench::{MetricDef, Workload, END_TO_END, PER_LAYER};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The value of `"key": "value"` on a one-object-per-line JSON line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    line[at..].split('"').next()
}

#[test]
fn manifest_lists_every_workload_and_metric() {
    let manifest = read("../BENCHMARK.json");
    let named: Vec<&str> = manifest
        .lines()
        .filter_map(|line| field(line, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        .collect();
    assert_eq!(named, expected);
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let line = manifest
            .lines()
            .find(|line| field(line, "name") == Some(def.name))
            .expect("listed above");
        let MetricDef { unit, better, .. } = def;
        assert_eq!(field(line, "unit"), Some(*unit), "{}", def.name);
        assert_eq!(field(line, "better"), Some(*better), "{}", def.name);
    }
}

#[test]
fn readme_glossary_covers_every_metric() {
    let readme = read("README.md");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            readme.contains(&format!("`{}`", def.name)),
            "README.md does not explain `{}`",
            def.name
        );
    }
    for w in Workload::ALL {
        assert!(readme.contains(&format!("`{}`", w.name())), "{}", w.name());
    }
}
