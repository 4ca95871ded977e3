//! The `bqc` CLI's deadline bounds every pipeline stage, witness
//! materialization included.
//!
//! The pair below spends under a millisecond (release build) before witness
//! materialization and ~28 ms in it: its verified witness has 638 rows, and
//! the hom(Q2) counts on the amplified normal relations dominate the
//! decision.  Under `--deadline-ms 10` the same decision must come back
//! promptly as a resource-exhausted `unknown`.

use std::process::Command;
use std::time::{Duration, Instant};

const WITNESS_BOUND_PAIR: &str = "Q1() :- S(v0,v0), S(v0,v1), S(v1,v2), U(v0) ; \
                                  Q2() :- S(v0,v1), S(v0,v2)";

#[test]
fn deadline_cuts_witness_materialization_short() {
    let dir = std::env::temp_dir().join(format!("bqc-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    let file = dir.join("witness_bound.bqc");
    std::fs::write(&file, format!("{WITNESS_BOUND_PAIR}\n")).expect("writing workload");

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bqc"))
        .args(["--deadline-ms", "10", "--fail-on", "unknown"])
        .arg(&file)
        .output()
        .expect("running bqc");
    let elapsed = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "answers unknown: {stdout}");
    assert!(
        stdout.contains("undecided: deadline budget exhausted"),
        "{stdout}"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}
