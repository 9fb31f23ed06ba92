//! The `reproduce` binary rejects what it does not understand: an
//! unknown or removed flag, a value-taking flag given no value, a
//! malformed value and an unknown or retired table id (T16, T18, T19)
//! all exit with status 2 before any table runs.

use std::process::Command;

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["quick", "T2", "--ctx", "fresh"][..],
        &["quick", "T2", "--threads"],
        &["quick", "T2", "--threads", "1"],
        &["quick", "T2", "--sorter", "bitonic"],
        &["quick", "T99"],
        &["quick", "T16"],
        &["quick", "T18"],
        &["quick", "T19"],
        &["--help"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("run reproduce")
            .status;
        assert_eq!(status.code(), Some(2), "reproduce {args:?}");
    }
}
