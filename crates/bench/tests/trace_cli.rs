//! The `trace` binary turns bad arguments into its usage message and
//! exit status 2 — never a silent default and never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("trace binary runs")
}

fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn bad_record_arguments_print_usage_and_exit_2() {
    let path = tmp_path("bad-args.jsonl");
    let path = path.to_str().expect("utf-8 path");
    let cases: &[&[&str]] = &[
        &["record", path, "--n", "six"],
        &["record", path, "--n"],
        &["record", path, "--n", "12"],
        &["record", path, "--n", "1"],
        &["record", path, "--n", "-3"],
        &["record", path, "--n", "99999999999999999999999"],
        &["record", path, "--n", "4", "--seed", "0x7"],
        &["replay", path, "--top", "many"],
        &["diff", path, path, "--context"],
        &["frobnicate"],
        &[],
    ];
    for args in cases {
        let out = trace(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(path).exists(),
        "a rejected record wrote its output file"
    );
}

#[test]
fn good_arguments_record_and_replay() {
    let path = tmp_path("s3.jsonl");
    let path = path.to_str().expect("utf-8 path");
    let out = trace(&["record", path, "--n", "3", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = trace(&["replay", path, "--top", "2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("replayed:"));
    let out = trace(&["diff", path, path, "--context", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
