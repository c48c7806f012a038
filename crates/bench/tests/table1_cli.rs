//! `table1`'s command line: a malformed flag is an error (exit code 2,
//! a message on stderr, nothing on stdout), never a silent default, and it
//! is caught before any flow runs.

use std::process::Command;

#[test]
fn malformed_flags_exit_with_code_2_before_any_output() {
    let malformed: &[&[&str]] = &[
        &["--bogus"],
        &["extra"],
        &["--target"],
        &["--jobs", "--target", "4"],
        &["--lut-k", "x"],
        &["--max-iterations=-1"],
        &["--no-penalties=yes"],
        &["--jobs", "0"],
        &["--target", "1"],
        &["--lut-k", "2"],
        &["--max-iterations", "0"],
    ];
    for args in malformed {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(*args)
            .output()
            .expect("the table1 binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?} was not rejected");
        assert!(out.stdout.is_empty(), "{args:?} ran before it was rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("error: "),
            "{args:?} gave no message"
        );
    }
}
