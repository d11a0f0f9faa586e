//! Fixture corpus for the project-invariant lint: each fixture seeds known
//! violations (and near-misses that must NOT be flagged) for one rule, and
//! the tests pin down exactly what [`sdnfv_check::lint::scan_source`]
//! reports. The fixture sources are never compiled — they are scanned with
//! synthetic workspace paths chosen to trigger the right scope.

use std::path::Path;

use sdnfv_check::lint::{self, Allowlist, Finding};

fn scan_fixture(fixture: &str, synthetic_path: &str) -> Vec<Finding> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let source = std::fs::read_to_string(dir.join(fixture))
        .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
    lint::scan_source(Path::new(synthetic_path), &source)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn timestamp_rule_flags_wall_clock_outside_tests() {
    let findings = scan_fixture("timestamp_bad.rs", "crates/sdnfv-sim/src/fixture.rs");
    assert_eq!(rules(&findings), ["timestamp"], "{findings:?}");
    assert!(findings[0].excerpt.contains("Instant::now()"));
}

#[test]
fn timestamp_rule_is_silent_in_test_like_paths() {
    for path in [
        "crates/sdnfv-sim/tests/fixture.rs",
        "crates/sdnfv-bench/src/fixture.rs",
        "examples/fixture.rs",
        "shims/criterion/src/fixture.rs",
    ] {
        let findings = scan_fixture("timestamp_bad.rs", path);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn safety_rule_flags_only_the_undocumented_unsafe() {
    let findings = scan_fixture("safety_bad.rs", "crates/sdnfv-proto/src/fixture.rs");
    assert_eq!(rules(&findings), ["safety-comment"], "{findings:?}");
    // The flagged site is the block in `undocumented`; the `# Safety` doc
    // section and the inline `// SAFETY:` both satisfy the rule.
    assert_eq!(findings[0].line, 6, "{findings:?}");
}

#[test]
fn atomic_order_rule_flags_undocumented_ops_once_per_statement() {
    let findings = scan_fixture("order_bad.rs", "crates/sdnfv-ring/src/fixture.rs");
    assert_eq!(
        rules(&findings),
        ["atomic-order", "atomic-order", "atomic-order"],
        "{findings:?}"
    );
    // Bare load: flagged at its own line.
    assert!(findings[0]
        .excerpt
        .contains("self.value.load(Ordering::Relaxed)"));
    // Multi-line CAS: both `Ordering::` argument lines collapse to one
    // finding anchored at the statement's first line.
    assert!(findings[1].excerpt.contains("self.value"), "{findings:?}");
    assert!(findings[1].message.contains("ORDER"), "{findings:?}");
    // SeqCst: flagged even though an ORDER comment is present.
    assert!(findings[2].message.contains("SeqCst"), "{findings:?}");
}

#[test]
fn atomic_order_rule_only_applies_to_the_lock_free_core() {
    let findings = scan_fixture("order_bad.rs", "crates/sdnfv-control/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hot_path_rule_flags_blocking_in_hot_fns_only() {
    let findings = scan_fixture("hotpath_bad.rs", "crates/sdnfv-dataplane/src/runtime.rs");
    assert_eq!(rules(&findings), ["hot-path-block"; 4], "{findings:?}");
    assert!(findings[0].excerpt.contains("thread::sleep"));
    assert!(findings[1].excerpt.contains(".lock()"));
    // The worker's per-packet fns are hot paths too, and taking a lock's
    // read or write side blocks as `.lock()` does; `read_guard()`,
    // `write_guard()` and `with_read(..)` are other names, not flagged.
    assert!(findings[2].excerpt.contains(".read().unwrap().len()"));
    assert!(findings[3].excerpt.contains(".write().unwrap()"));
    // `control_plane_tick` is not a hot-path fn: its locks are not flagged.
    assert!(!findings
        .iter()
        .any(|f| f.excerpt.contains("clear") || f.excerpt.contains("first")));
}

#[test]
fn hot_path_rule_covers_what_admission_runs_per_packet() {
    for path in [
        "crates/sdnfv-proto/src/packet.rs",
        "crates/sdnfv-ring/src/credit.rs",
        "crates/sdnfv-dataplane/src/rehome.rs",
    ] {
        let findings = scan_fixture("admission_bad.rs", path);
        // The walk, the credit grant, admit and finish; `resize` is not a
        // per-packet fn.
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [13, 17, 22, 26], "{path}: {findings:?}");
        assert_eq!(rules(&findings), ["hot-path-block"; 4], "{findings:?}");
    }
    let findings = scan_fixture("admission_bad.rs", "crates/sdnfv-ring/src/pool.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hot_path_rule_keeps_every_lock_out_of_the_packet_handles() {
    let findings = scan_fixture("handle_lock_bad.rs", "crates/sdnfv-ring/src/shared.rs");
    assert_eq!(rules(&findings), ["hot-path-block"; 6], "{findings:?}");
    // Outside any fn as much as inside one: a lock type in an import or a
    // field is flagged, and so is taking either side of one.
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [4, 6, 9, 10, 15, 19], "{findings:?}");
    assert!(findings[4].excerpt.contains(".read()"));
    assert!(findings[5].excerpt.contains(".write()"));
    assert!(findings[0].message.contains("immutable packet"));
}

#[test]
fn hot_path_rule_spares_the_packet_handles_near_misses_and_other_files() {
    let findings = scan_fixture("handle_lock_good.rs", "crates/sdnfv-ring/src/shared.rs");
    assert!(findings.is_empty(), "{findings:?}");
    // The whole-file scope is the packet-handle module's alone.
    let findings = scan_fixture("handle_lock_bad.rs", "crates/sdnfv-ring/src/pool.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn todo_rule_flags_stubs_outside_tests() {
    let findings = scan_fixture("todo_bad.rs", "crates/sdnfv-nf/src/fixture.rs");
    assert_eq!(rules(&findings), ["no-todo", "no-todo"], "{findings:?}");
    assert!(findings[0].excerpt.contains("todo!"));
    assert!(findings[1].excerpt.contains("unimplemented!"));
}

#[test]
fn masking_preserves_line_structure_through_string_continuations() {
    // A `\` line-continuation inside a string literal must not swallow the
    // newline, or every later finding reports the wrong line (regression:
    // the hot-path rule once mis-anchored a finding in runtime.rs by one
    // line because of exactly this).
    let source = "fn f() -> &'static str {\n    \"first \\\n     second\"\n}\n";
    let masked = lint::mask_source(source);
    assert_eq!(masked.lines().count(), source.lines().count());
}

#[test]
fn allowlist_suppresses_matches_and_reports_stale_entries() {
    let text = "# fixture allowlist\n\
                timestamp | src/fixture.rs | Instant::now | fixture justification\n\
                timestamp | src/fixture.rs | NoSuchSubstring | never matches anything\n";
    let allow = Allowlist::parse(text).expect("well-formed allowlist");
    let findings = scan_fixture("timestamp_bad.rs", "crates/sdnfv-sim/src/fixture.rs");
    let (kept, suppressed, unused) = allow.apply(findings);
    assert!(kept.is_empty(), "{kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(unused.len(), 1, "the never-matching entry is stale");
    assert_eq!(unused[0].line_substring, "NoSuchSubstring");
}

#[test]
fn allowlist_entries_are_rule_and_path_specific() {
    let text = "timestamp | some/other/file.rs | Instant::now | wrong file, must not suppress\n";
    let allow = Allowlist::parse(text).expect("well-formed allowlist");
    let findings = scan_fixture("timestamp_bad.rs", "crates/sdnfv-sim/src/fixture.rs");
    let (kept, suppressed, unused) = allow.apply(findings);
    assert_eq!(kept.len(), 1, "finding in a different file stays");
    assert!(suppressed.is_empty());
    assert_eq!(unused.len(), 1);
}

#[test]
fn malformed_allowlist_lines_are_parse_errors() {
    assert!(Allowlist::parse("timestamp | missing | fields").is_err());
    assert!(Allowlist::parse("just some prose").is_err());
    // Comments and blank lines are fine.
    assert!(Allowlist::parse("# comment\n\n").is_ok());
}

#[test]
fn the_checked_in_allowlist_parses_and_is_fully_used() {
    // Guards the real allowlist file: it must parse, and running the real
    // lint over the real workspace must use every entry (no rot) and keep
    // nothing (clean tree). This is the same contract as the CI job.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let text = std::fs::read_to_string(root.join("crates/sdnfv-check/lint.allow"))
        .expect("lint.allow exists");
    let allow = Allowlist::parse(&text).expect("checked-in allowlist parses");
    let mut findings = Vec::new();
    for file in lint::workspace_files(root) {
        let Ok(source) = std::fs::read_to_string(root.join(&file)) else {
            continue;
        };
        findings.extend(lint::scan_source(&file, &source));
    }
    let (kept, _suppressed, unused) = allow.apply(findings);
    assert!(kept.is_empty(), "workspace lint must be clean: {kept:#?}");
    assert!(unused.is_empty(), "stale allowlist entries: {unused:#?}");
}
