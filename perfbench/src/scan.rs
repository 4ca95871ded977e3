//! `perfbench scan`: lists the `random_pair` indices whose decision builds
//! a large witness — more than `WITNESS_ROWS` rows, or none within
//! `witness_max_rows`.  The pools exclude them: witness materialization
//! costs grow with the witness (5–30 ms at 512 rows, up to 3 s when the row
//! budget is exhausted, against ≤ 4 ms at ≤ 128 rows).  Each pair is decided
//! in canonical form, as the engine and the daemon decide it.

use crate::gen::POOL_DOMAIN;
use bqc::bench::families::{random_pair, PairConfig};
use bqc::core::{decide_containment_traced, ContainmentAnswer, DecideContext, DecideOptions};
use bqc::engine::canonicalize_pair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Largest witness relation (rows) a pool question may need.
const WITNESS_ROWS: usize = 256;

pub fn main() -> i32 {
    let config = PairConfig::default();
    let next = AtomicU64::new(0);
    let found = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut ctx = DecideContext::new();
                let options = DecideOptions::default();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= POOL_DOMAIN {
                        break;
                    }
                    let (q1, q2) = random_pair(index as usize, &config);
                    let pair = canonicalize_pair(&q1, &q2);
                    let decision = decide_containment_traced(
                        &mut ctx,
                        &pair.q1.query,
                        &pair.q2.query,
                        &options,
                    )
                    .expect("random pairs have matching heads");
                    let large = match &decision.answer {
                        ContainmentAnswer::NotContained { witness, .. } => witness
                            .as_ref()
                            .is_none_or(|w| w.relation.len() > WITNESS_ROWS),
                        _ => false,
                    };
                    if large {
                        found.lock().unwrap().push(index);
                    }
                }
            });
        }
    });
    let mut found = found.into_inner().unwrap();
    found.sort_unstable();
    println!("# random_pair indices (default PairConfig) below {POOL_DOMAIN} whose");
    println!("# decision (in canonical form, default options) is `not contained`");
    println!("# with a witness of more than {WITNESS_ROWS} rows or none within");
    println!("# witness_max_rows.  Regenerate with `perfbench scan`.");
    for index in found {
        println!("{index}");
    }
    0
}
