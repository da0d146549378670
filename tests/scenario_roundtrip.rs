//! The committed `scenarios/` corpus is well-formed: every file parses
//! into a validated [`ScenarioSpec`], is stored in canonical form (so
//! `scenario_runner --canonicalize` is a no-op), round-trips through the
//! wire format losslessly, and matches the digest ledger's name list.

use nostop_core::scenario::{self, ScenarioSpec, SkewSpec};
use nostop_simcore::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn corpus_files() -> Vec<PathBuf> {
    scenario::corpus_files(&corpus_dir()).unwrap_or_else(|e| panic!("{e}"))
}

fn load(path: &Path) -> (String, ScenarioSpec) {
    let text = std::fs::read_to_string(path).expect("readable");
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spec = ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (text, spec)
}

#[test]
fn every_corpus_file_parses_and_round_trips() {
    for path in corpus_files() {
        let (text, spec) = load(&path);
        // Canonical on disk: the committed bytes are exactly the spec's
        // own serialization (plus trailing newline).
        let canonical = format!("{}\n", spec.to_json().to_string_pretty());
        assert_eq!(
            text,
            canonical,
            "{} is not canonical; run `scenario_runner --canonicalize`",
            path.display()
        );
        // Lossless round-trip through the wire format.
        let back = ScenarioSpec::from_json(&spec.to_json())
            .unwrap_or_else(|e| panic!("{} re-parse: {e}", path.display()));
        assert_eq!(spec, back, "{} round-trip changed the spec", path.display());
    }
}

#[test]
fn corpus_names_are_unique_and_match_file_stems() {
    let mut names = BTreeSet::new();
    for path in corpus_files() {
        let (_, spec) = load(&path);
        assert!(
            names.insert(spec.name.clone()),
            "duplicate scenario name `{}`",
            spec.name
        );
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            spec.name,
            stem,
            "{}: scenario name must match its file stem",
            path.display()
        );
    }
}

#[test]
fn digest_ledger_matches_corpus() {
    let ledger = std::fs::read_to_string(corpus_dir().join("DIGESTS.txt"))
        .expect("scenarios/DIGESTS.txt is committed");
    let ledger_names: Vec<&str> = ledger
        .lines()
        .map(|l| l.split_whitespace().next().expect("name hex"))
        .collect();
    let corpus_names: Vec<String> = corpus_files().iter().map(|p| load(p).1.name).collect();
    assert_eq!(
        ledger_names, corpus_names,
        "DIGESTS.txt names out of sync with scenarios/*.json; \
         regenerate with `scenario_runner --write-digests`"
    );
    for line in ledger.lines() {
        let digest = line.split_whitespace().nth(1).expect("name hex");
        assert_eq!(digest.len(), 16, "digest `{digest}` is not 16 hex chars");
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
    }
}

#[test]
fn corpus_exercises_the_adversarial_surface() {
    // The corpus must keep covering what the scenario DSL was built for:
    // at least one composite arrival process, one skewed scenario, one
    // fault plan, and the fig5/fig6 wrapper entries for every workload.
    use nostop_core::scenario::RateSpec;
    let specs: Vec<ScenarioSpec> = corpus_files().iter().map(|p| load(p).1).collect();
    let composite = specs.iter().any(|s| {
        matches!(
            s.rate,
            RateSpec::FlashCrowd { .. }
                | RateSpec::ParetoBurst { .. }
                | RateSpec::CorrelatedSurge { .. }
        )
    });
    assert!(composite, "no composite adversarial rate in the corpus");
    assert!(
        specs.iter().any(|s| !matches!(s.skew, SkewSpec::None)),
        "no skewed scenario in the corpus"
    );
    assert!(
        specs.iter().any(|s| !s.faults.is_empty()),
        "no faulted scenario in the corpus"
    );
    for workload in [
        "logistic-regression",
        "linear-regression",
        "wordcount",
        "page-analyze",
    ] {
        for fig in ["fig5", "fig6"] {
            let name = format!("{fig}-{workload}");
            assert!(
                specs.iter().any(|s| s.name == name),
                "missing wrapper scenario `{name}`"
            );
        }
    }
}
