//! The `bqc` CLI's deadline bounds every pipeline stage, witness
//! materialization included.
//!
//! The pair below reaches witness materialization with a Γ_n
//! counterexample whose normal witness never verifies, so an unbudgeted
//! decision spends seconds in hom(Q2) counts before giving up on the
//! witness.  Under `--deadline-ms 50` the same decision must come back
//! promptly as a resource-exhausted `unknown`.

use std::process::Command;
use std::time::{Duration, Instant};

const WITNESS_BOUND_PAIR: &str = "Q1() :- R(v2,v1), R(v3,v2), R(v2,v0), U(v2), R(v0,v3) ; \
                                  Q2() :- R(v2,v1), R(v2,v0), U(v2)";

#[test]
fn deadline_cuts_witness_materialization_short() {
    let dir = std::env::temp_dir().join(format!("bqc-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    let file = dir.join("witness_bound.bqc");
    std::fs::write(&file, format!("{WITNESS_BOUND_PAIR}\n")).expect("writing workload");

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bqc"))
        .args(["--deadline-ms", "50", "--fail-on", "unknown"])
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
