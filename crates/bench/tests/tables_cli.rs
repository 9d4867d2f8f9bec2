//! The `tables` binary turns a bad `--n`/`--max-n` into its usage
//! message and exit status 2 — never a silent default and never a
//! library panic.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary runs")
}

#[test]
fn bad_order_arguments_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &["traffic", "--n", "six"],
        &["traffic", "--n"],
        &["traffic", "--n", "12"],
        &["traffic", "--n", "1"],
        &["traffic", "--n", "-3"],
        &["traffic", "--n", "99999999999999999999999"],
        &["sched", "--n", "2"],
        &["sched", "--n", "10"],
        &["obs", "--n", "2"],
        &["coll", "--max-n", "10"],
        &["dilation", "--max-n", "12"],
        &["thm6", "--max-n", "10"],
        &["congestion", "--max-n", "9"],
        &["fig7", "--n", "21"],
        &["table1", "--n", "0"],
        &["lemma3", "--max-n", "seven"],
        &["frobnicate"],
        &[],
    ];
    for args in cases {
        let out = tables(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn good_order_arguments_print_the_table() {
    for (args, title) in [
        (
            &["traffic", "--n", "3"][..],
            "traffic simulation on the S_n",
        ),
        (&["dilation", "--max-n", "4"][..], "dilation audit"),
    ] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(title),
            "{args:?}"
        );
    }
}
