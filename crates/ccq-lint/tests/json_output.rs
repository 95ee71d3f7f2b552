//! JSON diagnostics must be byte-stable: `run_suite.sh` archives
//! `results/lint.json` next to the golden traces, so two runs over the
//! same tree must produce identical bytes, and the schema is pinned
//! here down to whitespace.

use ccq_lint::{render_json, Finding};

fn sample() -> Vec<Finding> {
    vec![
        Finding {
            path: "crates/core/src/searcher.rs".into(),
            line: 41,
            col: 17,
            rule: "determinism",
            message: "`HashMap` iteration order varies run-to-run; use BTreeMap/BTreeSet or a Vec"
                .into(),
        },
        Finding {
            path: "crates/serve/src/spool.rs".into(),
            line: 9,
            col: 5,
            rule: "durability",
            message: "rename without a preceding sync_all in the same function".into(),
        },
    ]
}

#[test]
fn empty_document_bytes_are_pinned() {
    assert_eq!(
        render_json(&[]),
        "{\n  \"version\": 1,\n  \"count\": 0,\n  \"findings\": []\n}\n"
    );
}

#[test]
fn populated_document_bytes_are_pinned() {
    let expected = concat!(
        "{\n",
        "  \"version\": 1,\n",
        "  \"count\": 2,\n",
        "  \"findings\": [\n",
        "    {\"file\": \"crates/core/src/searcher.rs\", \"line\": 41, \"col\": 17, ",
        "\"rule\": \"determinism\", \"message\": \"`HashMap` iteration order varies ",
        "run-to-run; use BTreeMap/BTreeSet or a Vec\"},\n",
        "    {\"file\": \"crates/serve/src/spool.rs\", \"line\": 9, \"col\": 5, ",
        "\"rule\": \"durability\", \"message\": ",
        "\"rename without a preceding sync_all in the same function\"}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(render_json(&sample()), expected);
}

#[test]
fn rendering_is_deterministic() {
    let findings = sample();
    assert_eq!(render_json(&findings), render_json(&findings));
}

#[test]
fn control_characters_and_quotes_are_escaped() {
    let f = [Finding {
        path: "a\"b\\c.rs".into(),
        line: 1,
        col: 1,
        rule: "determinism",
        message: "tab\there\nnewline\u{1}ctl".into(),
    }];
    let out = render_json(&f);
    assert!(out.contains("\"a\\\"b\\\\c.rs\""), "{out}");
    assert!(out.contains("tab\\there\\nnewline\\u0001ctl"), "{out}");
    // Still a single line per finding: the raw control bytes are gone.
    assert!(!out.contains('\u{1}'), "{out}");
}
