//! End-to-end checks of the `pathix` command-line front end.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use std::process::Command;

/// Runs `pathix query` on a small generated document and returns stdout.
fn query(method: &str, query: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pathix"))
        .args([
            "query", "--scale", "0.05", "--method", method, "--sort", query,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The value of the `key:` line of a `pathix query` report.
fn field<'a>(report: &'a str, key: &str) -> &'a str {
    report
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .unwrap()
        .trim()
}

#[test]
fn auto_method_honours_sort() {
    // A node set with many results, so the document-order sort is charged
    // visibly in the report.
    let q = "/site//*";
    let auto = query("auto", q);
    assert!(field(&auto, "result:").parse::<u64>().unwrap() > 1);
    let chosen = field(&auto, "plan:").to_lowercase();
    assert_eq!(
        auto,
        query(&chosen, q),
        "auto must run like --method {chosen}"
    );
}
