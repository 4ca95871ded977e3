//! The traced run's layer pass: the engine's order of public calls, one
//! request at a time — parse → `canonicalize_pair` → `DecisionCache::probe`
//! → `decide_containment_traced` → `DecisionCache::insert` — with the
//! benchmark's own timers around each call and, when traced, the program's
//! existing spans (`lp-solve`, `gamma-check`, …) recorded through
//! `bqc_obs::start_tracing`.

use bqc::core::{decide_containment_traced, DecideContext, DecideOptions, SkeletonCache};
use bqc::engine::{canonicalize_pair, parse_workload_line, DecisionCache};
use bqc::obs::{TraceEvent, TraceEventKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// The pipeline stages reported per stage.
pub const STAGES: [&str; 5] = [
    "hom-existence",
    "junction-tree",
    "counting-refuter",
    "shannon-lp",
    "witness-materialization",
];

/// Requests between trace-buffer drains (the program's span buffer holds a
/// bounded number of events).
const TRACE_CHUNK: usize = 64;

#[derive(Debug, Default)]
pub struct LayerPass {
    pub requests: usize,
    pub wall_s: f64,
    pub parse_s: f64,
    pub canon_s: f64,
    pub probe_s: f64,
    pub decide_s: f64,
    pub insert_s: f64,
    pub decisions: usize,
    /// Per stage: total microseconds and decisions it decided.
    pub stage_us: BTreeMap<&'static str, u64>,
    pub stage_decided: BTreeMap<&'static str, usize>,
    /// Microseconds of every witness-materialization stage that ran.
    pub witness_us: Vec<u64>,
    /// Union of the program's `lp-solve` / `gamma-check` spans.
    pub lp_solve_s: f64,
    pub gamma_check_s: f64,
    pub dropped_events: u64,
    /// The verdict of each request, for cross-checking the engine pass.
    pub verdicts: Vec<String>,
}

impl LayerPass {
    /// Wall time not inside any layer call: the loop itself and, when
    /// traced, draining the span buffer.
    pub fn residual_s(&self) -> f64 {
        self.wall_s - (self.parse_s + self.canon_s + self.probe_s + self.decide_s + self.insert_s)
    }
}

/// Total length of the union of the named spans' intervals.
fn span_union_s(events: &[TraceEvent], name: &str) -> f64 {
    let mut spans: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Complete && e.name == name)
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect();
    spans.sort_unstable();
    let mut total = 0u64;
    let mut covered_to = 0u64;
    for (start, end) in spans {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total as f64 * 1e-9
}

/// Runs `lines` through the layers against `cache`.  `traced == false`
/// measures only the wall time (the untraced baseline for the tracing
/// overhead); `prime` lines are run first, untimed, to bring the cache to
/// the state the workload's engine pass started from.
pub fn layer_pass(
    lines: &[String],
    prime: &[String],
    cache: &DecisionCache,
    skeletons: &SkeletonCache,
    traced: bool,
) -> LayerPass {
    let options = DecideOptions::default();
    let mut ctx = DecideContext::with_skeletons(skeletons.clone());
    for line in prime {
        let entry = parse_workload_line(line, 1).unwrap().unwrap();
        let pair = canonicalize_pair(&entry.q1, &entry.q2);
        if cache.probe(pair.hash, &pair.key).is_none() {
            if let Ok(d) =
                decide_containment_traced(&mut ctx, &pair.q1.query, &pair.q2.query, &options)
            {
                cache.insert(pair.hash, &pair.key, d.answer.summary());
            }
        }
    }
    let mut pass = LayerPass {
        requests: lines.len(),
        ..LayerPass::default()
    };
    let mut events: Vec<TraceEvent> = Vec::new();
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        if traced && i % TRACE_CHUNK == 0 {
            if i > 0 {
                let snapshot = bqc::obs::stop_tracing();
                pass.dropped_events += snapshot.dropped;
                events.extend(snapshot.events.into_iter().filter(|e| {
                    e.kind == TraceEventKind::Complete
                        && (e.name == "lp-solve" || e.name == "gamma-check")
                }));
            }
            bqc::obs::start_tracing();
        }
        let t0 = Instant::now();
        let entry = parse_workload_line(line, 1)
            .expect("benchmark lines parse")
            .expect("benchmark lines are not blank");
        let t1 = Instant::now();
        let pair = canonicalize_pair(&entry.q1, &entry.q2);
        let t2 = Instant::now();
        let hit = cache.probe(pair.hash, &pair.key);
        let t3 = Instant::now();
        let verdict = match hit {
            Some(hit) => hit.summary.to_string(),
            None => {
                let decision =
                    decide_containment_traced(&mut ctx, &pair.q1.query, &pair.q2.query, &options);
                let t4 = Instant::now();
                let verdict = match decision {
                    Ok(decision) => {
                        let summary = decision.answer.summary();
                        cache.insert(pair.hash, &pair.key, summary);
                        if traced {
                            pass.decisions += 1;
                            for report in decision.trace.reports() {
                                *pass.stage_us.entry(report.stage).or_default() += report.micros;
                                if report.stage == "witness-materialization" {
                                    pass.witness_us.push(report.micros);
                                }
                            }
                            if let Some(stage) = decision.trace.decided_by() {
                                *pass.stage_decided.entry(stage).or_default() += 1;
                            }
                        }
                        summary.to_string()
                    }
                    Err(error) => format!("error: {error}"),
                };
                if traced {
                    pass.decide_s += (t4 - t3).as_secs_f64();
                    pass.insert_s += t4.elapsed().as_secs_f64();
                }
                verdict
            }
        };
        if traced {
            pass.parse_s += (t1 - t0).as_secs_f64();
            pass.canon_s += (t2 - t1).as_secs_f64();
            pass.probe_s += (t3 - t2).as_secs_f64();
        }
        pass.verdicts.push(verdict);
    }
    if traced {
        let snapshot = bqc::obs::stop_tracing();
        pass.dropped_events += snapshot.dropped;
        events.extend(snapshot.events);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.lp_solve_s = span_union_s(&events, "lp-solve");
    pass.gamma_check_s = span_union_s(&events, "gamma-check");
    pass
}

/// The per-stage rows of a traced pass, in milliseconds, plus the part of
/// the decide layer no stage accounts for.
pub fn print_attribution(pass: &LayerPass, untraced: &LayerPass) {
    let ms = |s: f64| s * 1e3;
    let stage_total_s: f64 = pass.stage_us.values().sum::<u64>() as f64 * 1e-6;
    println!(
        "layer attribution over {} requests (traced wall {:.3} ms, untraced wall {:.3} ms):",
        pass.requests,
        ms(pass.wall_s),
        ms(untraced.wall_s)
    );
    let mut rows: Vec<(String, f64)> = vec![
        ("parse".into(), pass.parse_s),
        ("canonicalize".into(), pass.canon_s),
        ("cache-probe".into(), pass.probe_s),
    ];
    for (stage, us) in &pass.stage_us {
        rows.push((format!("decide/{stage}"), *us as f64 * 1e-6));
    }
    rows.push(("decide/pipeline-glue".into(), pass.decide_s - stage_total_s));
    rows.push(("cache-insert".into(), pass.insert_s));
    rows.push(("residual".into(), pass.residual_s()));
    let mut sum = 0.0;
    for (name, s) in &rows {
        sum += s;
        println!(
            "  {:<36} {:>12.3} ms {:>6.1}%",
            name,
            ms(*s),
            100.0 * s / pass.wall_s
        );
    }
    println!("  {:<36} {:>12.3} ms", "sum (= traced wall)", ms(sum));
    println!(
        "  of which program spans: lp-solve {:.3} ms, gamma-check {:.3} ms; dropped events {}",
        ms(pass.lp_solve_s),
        ms(pass.gamma_check_s),
        pass.dropped_events
    );
}
