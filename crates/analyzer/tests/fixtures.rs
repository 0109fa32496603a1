//! Fixture-driven pass tests: each pass must fire on its seeded violations
//! (`fixtures/hl*_violating.rs` etc.) and stay silent on the
//! false-positive bait.

use std::fs;
use std::path::Path;

use hpcc_analyzer::lex::{lex, SourceFile};
use hpcc_analyzer::protocol::{self, EnumCheck, Region};
use hpcc_analyzer::unsafe_code::{self, RootLevel};
use hpcc_analyzer::{lock_order, no_panic, poison};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lex(name, &src)
}

#[test]
fn hl001_flags_every_seeded_violation() {
    let findings = no_panic::check(&fixture("hl001_violating.rs"));
    assert_eq!(
        findings.len(),
        6,
        "expected the 6 seeded violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings.iter().all(|f| f.code == "HL001"));
    for needle in [
        "slice indexing",
        "unwrap",
        "expect",
        "panic!",
        "todo!",
        "unreachable!",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "no finding mentions {needle}"
        );
    }
}

#[test]
fn hl001_ignores_strings_comments_stringify_markers_and_tests() {
    let findings = no_panic::check(&fixture("hl001_bait.rs"));
    assert!(
        findings.is_empty(),
        "bait fixture should be clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hl001_marker_without_a_reason_is_ignored() {
    let src = "// hpcc-lint: allow(panic) —\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let findings = no_panic::check(&lex("m.rs", src));
    assert_eq!(findings.len(), 1, "an empty reason must not justify a site");
}

#[test]
fn hl002_reports_opposite_order_acquisition_as_a_cycle() {
    let findings = lock_order::check_crate(&[fixture("hl002_cycle.rs")]);
    assert_eq!(
        findings.len(),
        1,
        "expected exactly the cycle finding:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings[0]
        .message
        .contains("cyclic lock acquisition order"));
    assert!(findings[0].message.contains("first") && findings[0].message.contains("second"));
}

#[test]
fn hl002_reports_a_guard_held_across_a_blocking_send() {
    let findings = lock_order::check_crate(&[fixture("hl002_blocking.rs")]);
    assert_eq!(
        findings.len(),
        1,
        "only `flush` holds the guard across `.send(`:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings[0].message.contains("held across blocking"));
    assert!(findings[0].message.contains("state"));
}

#[test]
fn hl003_flags_the_bare_lock_unwrap_and_nothing_else() {
    let findings = poison::check_crate(&[fixture("hl003_violating.rs")]);
    assert_eq!(
        findings.len(),
        1,
        "helper body, justified site, and test code are exempt:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings[0].message.contains("lock_recover"));
    assert_eq!(
        findings[0].snippet,
        "*counter.lock().unwrap() // bare: the one expected finding"
    );
}

#[test]
fn hl002_and_hl003_see_the_shared_helpers_in_a_crate_that_only_imports_them() {
    let file = fixture("hl003_imported.rs");
    let poison = poison::check_crate(std::slice::from_ref(&file));
    assert_eq!(
        poison.len(),
        1,
        "only the bare unwrap bypasses the imported helper:\n{}",
        poison
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(poison[0].message.contains("lock_recover"));
    assert_eq!(
        poison[0].snippet,
        "*self.first.lock().unwrap() // bare: the one expected HL003 finding"
    );
    let order = lock_order::check_crate(&[file]);
    assert_eq!(
        order.len(),
        1,
        "expected exactly the cycle through the imported helper:\n{}",
        order
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(order[0].message.contains("cyclic lock acquisition order"));
    assert!(order[0].message.contains("first") && order[0].message.contains("second"));
}

#[test]
fn hl003_is_silent_in_a_crate_without_a_helper() {
    let findings = poison::check_crate(&[fixture("hl002_cycle.rs")]);
    assert!(findings.is_empty());
}

#[test]
fn hl004_names_each_missing_wire_surface_arm() {
    let op = fixture("hl004_enum.rs");
    let regions = fixture("hl004_regions.rs");
    let findings = protocol::check(&EnumCheck {
        enum_file: &op,
        enum_name: "Operation",
        regions: vec![
            (&regions, Region::ConstPrefix("FX_")),
            (&regions, Region::FnBody("reply_kind")),
            (&regions, Region::FnBody("encode_request")),
        ],
    });
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(
        findings.len(),
        3,
        "FX_FORGET plus two encode arms are missing:\n{}",
        messages.join("\n")
    );
    assert!(messages.iter().any(|m| m.contains("const FX_FORGET")));
    assert!(messages
        .iter()
        .any(|m| m.contains("`Operation::Read`") && m.contains("encode_request")));
    assert!(messages
        .iter()
        .any(|m| m.contains("`Operation::Forget`") && m.contains("encode_request")));
}

#[test]
fn hl004_reports_a_stale_spec_instead_of_passing_vacuously() {
    let op = fixture("hl004_enum.rs");
    let regions = fixture("hl004_regions.rs");
    let findings = protocol::check(&EnumCheck {
        enum_file: &op,
        enum_name: "NoSuchEnum",
        regions: vec![(&regions, Region::FnBody("reply_kind"))],
    });
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("stale"));
}

#[test]
fn hl005_flags_unsafe_outside_sites_and_unjustified_blocks() {
    let file = fixture("hl005_violating.rs");
    let findings = unsafe_code::check_file(&file, &["dispatch"]);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        [9, 12, 15, 20, 22],
        "expected the 5 seeded violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings.iter().all(|f| f.code == "HL005"));
    assert!(findings[1].message.contains("allow(unsafe_code)"));
    assert!(findings[3].message.contains("SAFETY"));
    assert!(findings[4].message.contains("blocks"));
    let root = unsafe_code::check_root(&file, RootLevel::Forbid);
    assert_eq!(root.len(), 1, "deny is not forbid");
    assert!(root[0].message.contains("forbid"));
}

#[test]
fn hl005_ignores_prose_literals_lookalike_idents_and_justified_sites() {
    let file = fixture("hl005_bait.rs");
    let mut findings = unsafe_code::check_file(&file, &["compress"]);
    findings.extend(unsafe_code::check_root(&file, RootLevel::Deny));
    assert!(
        findings.is_empty(),
        "bait fixture should be clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hl006_flags_items_without_a_non_test_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("hl006");
    let findings = hpcc_analyzer::test_only_api_checks(&root).expect("fixture tree readable");
    let mut names: Vec<&str> = findings
        .iter()
        .map(|f| {
            f.message
                .split('`')
                .nth(1)
                .and_then(|item| item.rsplit(' ').next())
                .unwrap_or_default()
        })
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "FIRES_NAMED_ONLY",
            "fires_count",
            "fires_marker_without_anchor",
            "fires_marker_without_reason",
            "fires_test_called",
            "fires_uncalled",
        ],
        "expected the 6 seeded findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(findings.iter().all(|f| f.code == "HL006"));
    assert!(findings.iter().all(|f| f.file == "crates/lib/src/lib.rs"));
}
