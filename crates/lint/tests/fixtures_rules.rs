//! Every rule demonstrably fires on the known-bad fixture workspace and
//! stays quiet on the known-good one. The fixture sources live under
//! `tests/fixtures/` precisely because cargo never compiles them and the
//! workspace walker never collects them — they exist only to be scanned
//! here.

use std::path::PathBuf;

use swim_lint::report::render_text;
use swim_lint::rules::RuleId;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn bad_fixture_fires_every_rule() {
    let result = swim_lint::run(&fixture("bad")).expect("bad fixture loads");
    for rule in RuleId::ALL {
        assert!(
            result.findings.iter().any(|f| f.rule == rule),
            "rule `{rule}` never fired on the bad fixture:\n{}",
            render_text(&result)
        );
    }
    // The reasonless waiver must not have suppressed anything.
    assert!(result.waived.is_empty(), "{}", render_text(&result));
}

#[test]
fn bad_fixture_finding_lines_are_attributed() {
    let result = swim_lint::run(&fixture("bad")).expect("bad fixture loads");
    let has = |rule: RuleId, file: &str| {
        result
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file.ends_with(file))
    };
    assert!(has(RuleId::Panic, "crates/store/src/lib.rs"));
    assert!(has(RuleId::Clock, "crates/store/src/lib.rs"));
    assert!(has(RuleId::Ordering, "crates/store/src/lib.rs"));
    assert!(has(RuleId::Env, "crates/store/src/lib.rs"));
    assert!(has(RuleId::Waiver, "crates/store/src/lib.rs"));
    assert!(has(RuleId::Layering, "crates/store/src/lib.rs")); // undeclared `use swim_catalog`
    assert!(has(RuleId::Durability, "crates/catalog/src/lib.rs"));
    let surface = |name: &str| {
        result
            .findings
            .iter()
            .any(|f| f.rule == RuleId::Surface && f.message.contains(&format!("`pub fn {name}`")))
    };
    assert!(surface("only_tests_call_this")); // its only caller is #[cfg(test)]
    assert!(has(RuleId::Layering, "docs/depgraph.spec")); // swim-ghost resolves to nothing
    assert!(has(RuleId::Env, "docs/env-registry.txt")); // SWIM_STALE has no reader
    assert!(has(RuleId::Env, "README.md")); // markers missing
}

#[test]
fn good_fixture_is_quiet_with_one_reasoned_waiver() {
    let result = swim_lint::run(&fixture("good")).expect("good fixture loads");
    assert!(result.is_clean(), "{}", render_text(&result));
    assert_eq!(result.waived.len(), 1, "{}", render_text(&result));
    let waived = &result.waived[0];
    assert_eq!(waived.rule, RuleId::Panic);
    assert!(waived.reason.contains("reasoned waiver"));
}
