//! The `prasim` binary rejects what it does not understand: an unknown
//! or removed flag (`--ctx`, `--threads`), a value-taking flag given no
//! value and a malformed value all exit with status 2 before any
//! simulation runs.

use std::process::Command;

fn prasim(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_prasim"))
        .args(args)
        .output()
        .expect("run prasim")
        .status
        .code()
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["simulate", "--n", "64", "--ctx", "fresh"][..],
        &["simulate", "--n", "64", "--threads"],
        &["simulate", "--threads", "--n", "64"],
        &["simulate", "--n", "64", "--threads", "1"],
        &["simulate", "--n", "64", "--sorter", "bitonic"],
        &["route", "--n", "64", "--threads", "1"],
        &["route", "--n", "64", "--sorter", "bitonic"],
        &["route", "--n", "64", "--bogus", "1"],
        &["structure", "--n", "1024", "--threads", "2"],
        &["bibd", "--q", "x"],
        &["simulate", "extra"],
        &["bibd", "--q", "3", "--d", "0"],
        &["bibd", "--q", "3", "--d", "4294967298"],
        &["structure", "--n", "64", "--d", "0"],
        &["simulate", "--n", "64", "--memory", "12", "--q", "1"],
        &["simulate", "--n", "64", "--memory", "12", "--q", "0"],
        &["simulate", "--n", "1024", "--k", "9"],
        &["structure", "--n", "1024", "--d", "5", "--k", "4294967295"],
        &["route", "--n", "0"],
        &["simulate", "--n", "64", "--slack", "nan"],
        &["simulate", "--n", "64", "--slack", "inf"],
        &["simulate", "--n", "64", "--slack", "0"],
        &["simulate", "--n", "64", "--slack", "-1"],
    ] {
        assert_eq!(prasim(args), Some(2), "prasim {args:?}");
    }
}

#[test]
fn good_arguments_succeed() {
    for args in [
        &["--help"][..],
        &["help"],
        &["structure", "--n", "1024", "--d", "5"],
        &["route", "--n", "64", "--sorter", "shearsort"],
        &["bibd", "--q", "3", "--d", "2", "--dot"],
        &["route", "--n", "1"],
    ] {
        assert_eq!(prasim(args), Some(0), "prasim {args:?}");
    }
}
