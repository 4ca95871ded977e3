//! `perfbench`: the end-to-end and per-layer benchmark of `bqc`.
//!
//! ```text
//! perfbench --workload <lp-bound|repeat-mix|serve-restart> --seed N
//!           --seconds S --trace <0|1> --bqc PATH --work-dir DIR
//! perfbench scan > data/large_witness.txt
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `S` seconds; `--trace 1`
//! runs a fixed amount of the same workload and reports the per-layer
//! metrics.  Both check every answer against the reference (see
//! `reference.rs`) and exit non-zero on any disagreement.  See README.md.

mod gen;
mod layers;
mod reference;
mod scan;
mod serve;
mod stats;

use bqc::core::{
    decide_containment_traced, DecideContext, DecideOptions, DecisionTrace, SkeletonCache,
};
use bqc::engine::{
    canonicalize_pair, decode_snapshot, encode_snapshot, fnv1a, parse_workload, DecisionCache,
    Engine, EngineOptions, Provenance,
};
use gen::{LpStream, Pair, Pool, Request, ZipfStream};
use layers::{layer_pass, LayerPass, STAGES};
use reference::{check_new, score, Answer, Outcome, Score};
use serve::{closed_loop, family_total, prometheus_values, ClientRun, Daemon};
use stats::{median, peak_rss_mb, percentile, reset_peak_rss, sorted, Report};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine worker threads, pinned (≤ the 2 cores of the reference machine)
/// so the figures do not depend on the core count.
const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The smallest sample count whose p99 has 10 samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// A timed run is this many segments, with the reference check of each in
/// between; rate and latencies are the best segment's.
const SEGMENTS: usize = 3;
/// A segment's rate and latencies are medians over this many windows.
const WINDOWS: usize = 3;
/// A decision slower than this share of the timed run is flagged.
const CEILING_SHARE: f64 = 0.01;

/// lp-bound: batches of text parsed at set-up, warm-up batches, and the
/// traced run's fixed work.
const LP_TEXT_BATCHES: usize = 512;
const LP_WARM_BATCHES: usize = 40;
const LP_TRACE_BATCHES: usize = 100;
const LP_PROBE_REQUESTS: usize = 480;

/// repeat-mix: working set (twice the default cache of 8 × 1024 entries),
/// popularity, batch size, warm-up and text sizes.
const REPEAT_POOL: usize = 16384;
const ZIPF_EXPONENT: f64 = 1.0;
const REPEAT_BATCH: usize = 16;
const REPEAT_WARM: usize = 65536;
const REPEAT_TEXT: usize = 16384;
const REPEAT_TRACE: usize = 65536;
const REPEAT_PROBE_REQUESTS: usize = 4096;

/// serve-restart: working set restored from the snapshot, pool of new
/// questions, their share of traffic, per-shard capacity (8 shards, so the
/// cache holds 65536 entries and the working set fits), connections,
/// pipelining window, pre-generated request lines, warm-up requests and
/// traced-run size.
const SERVE_POOL: usize = 20000;
const SERVE_NEW_POOL: usize = 8192;
const SERVE_NEW_SHARE: f64 = 0.05;
const SERVE_CAPACITY: usize = 8192;
const CONNS: usize = 2;
const WINDOW: usize = 16;
const SERVE_LINES: usize = 262144;
const SERVE_WARM: usize = 4096;
const SERVE_TRACE: usize = 40000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bqc: PathBuf,
    work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bqc = None;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            "--bqc" => bqc = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bqc: bqc.ok_or("--bqc is required")?,
        work: work.ok_or("--work-dir is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("scan") {
        std::process::exit(scan::main());
    }
    let outcome = parse_args(&args).and_then(|args| {
        std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
        match args.workload.as_str() {
            "lp-bound" => lp_bound(&args),
            "repeat-mix" => repeat_mix(&args),
            "serve-restart" => serve_restart(&args),
            other => Err(format!("unknown workload {other}")),
        }
    });
    match outcome {
        Ok(report) => {
            report.print();
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

fn engine_options() -> EngineOptions {
    EngineOptions {
        workers: WORKERS,
        ..EngineOptions::default()
    }
}

fn lines_of(requests: &[Request]) -> Vec<String> {
    requests.iter().map(|r| r.line.clone()).collect()
}

fn text_of(requests: &[Request]) -> String {
    let mut text = String::new();
    for r in requests {
        text.push_str(&r.line);
        text.push('\n');
    }
    text
}

fn parse_requests(requests: &[Request]) -> Result<Vec<(usize, Pair)>, String> {
    let entries = parse_workload(&text_of(requests)).map_err(|e| e.to_string())?;
    Ok(requests
        .iter()
        .zip(entries)
        .map(|(r, e)| (r.base, (e.q1, e.q2)))
        .collect())
}

/// Set-up times, the parsed requests and the engine.
type BatchSetup = (Vec<f64>, Vec<(usize, Pair)>, Engine);

/// Batch set-up as a user of the engine pays it: parse the workload text,
/// build the engine.  Repeated; returns every time and the last result.
fn batch_setup(requests: &[Request]) -> Result<BatchSetup, String> {
    let text = text_of(requests);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let entries = parse_workload(&text).map_err(|e| e.to_string())?;
        let engine = Engine::new(engine_options());
        times.push(start.elapsed().as_secs_f64());
        last = Some((entries, engine));
    }
    let (entries, engine) = last.expect("at least one set-up");
    let parsed = requests
        .iter()
        .zip(entries)
        .map(|(r, e)| (r.base, (e.q1, e.q2)))
        .collect();
    Ok((times, parsed, engine))
}

/// Parsed requests handed out in fixed-size batches; refilled (untimed)
/// from the workload's stream when they run out.
struct Batches<'a> {
    parsed: VecDeque<(usize, Pair)>,
    refill: Box<dyn FnMut() -> Vec<Request> + 'a>,
    size: usize,
}

impl Batches<'_> {
    fn next(&mut self) -> Result<Vec<(usize, Pair)>, String> {
        while self.parsed.len() < self.size {
            let more = parse_requests(&(self.refill)())?;
            self.parsed.extend(more);
        }
        Ok(self.parsed.drain(..self.size).collect())
    }
}

/// One decision of the heavy-tail report.
struct Slow {
    micros: u64,
    base: usize,
    trace: Option<DecisionTrace>,
}

fn keep_slowest(slowest: &mut Vec<Slow>, candidate: Slow) {
    if slowest.len() < 5 || candidate.micros > slowest[slowest.len() - 1].micros {
        slowest.push(candidate);
        slowest.sort_by_key(|s| std::cmp::Reverse(s.micros));
        slowest.truncate(5);
    }
}

struct Timed {
    outcomes: Vec<Outcome>,
    elapsed_s: f64,
    slowest: Vec<Slow>,
    /// Requests answered by in-flight deduplication.
    deduped: usize,
}

/// Runs batches through `Engine::decide_batch` until `seconds` of batch time
/// (and at least `MIN_SAMPLES` requests) are done, or exactly `limit`
/// batches.  Every request of a batch completes when the batch returns.
fn run_batches(
    engine: &Engine,
    batches: &mut Batches,
    seconds: f64,
    limit: Option<usize>,
) -> Result<Timed, String> {
    let mut timed = Timed {
        outcomes: Vec::new(),
        elapsed_s: 0.0,
        slowest: Vec::new(),
        deduped: 0,
    };
    let mut done = 0;
    loop {
        let finished = match limit {
            Some(limit) => done == limit,
            None => timed.elapsed_s >= seconds && timed.outcomes.len() >= MIN_SAMPLES,
        };
        if finished {
            return Ok(timed);
        }
        let (bases, requests): (Vec<usize>, Vec<Pair>) = batches.next()?.into_iter().unzip();
        let start = Instant::now();
        let results = engine.decide_batch(&requests);
        let batch_s = start.elapsed().as_secs_f64();
        timed.elapsed_s += batch_s;
        done += 1;
        for (base, result) in bases.into_iter().zip(results) {
            if result.provenance == Provenance::DedupedInFlight {
                timed.deduped += 1;
            }
            if result.provenance == Provenance::Fresh {
                keep_slowest(
                    &mut timed.slowest,
                    Slow {
                        micros: result.micros,
                        base,
                        trace: result.trace,
                    },
                );
            }
            timed.outcomes.push(Outcome {
                base,
                answer: match result.answer {
                    Ok(summary) => Answer::Ok(summary),
                    Err(error) => Answer::Error(error.to_string()),
                },
                latency_ms: batch_s * 1e3,
                done_s: timed.elapsed_s,
            });
        }
    }
}

/// The five slowest decisions of the run with their stage breakdown;
/// flags any above `CEILING_SHARE` of the timed run.
fn print_heavy_tail(slowest: &[Slow], seconds: f64, describe: &dyn Fn(usize) -> String) {
    let ceiling_us = seconds * 1e6 * CEILING_SHARE;
    println!(
        "five slowest decisions (ceiling {:.1} ms = {:.0}% of the {seconds} s run):",
        ceiling_us / 1e3,
        CEILING_SHARE * 100.0
    );
    for slow in slowest {
        let stages = slow.trace.as_ref().map_or(String::new(), |trace| {
            trace
                .reports()
                .iter()
                .filter(|r| r.micros > 0)
                .map(|r| format!("{}={}us", r.stage, r.micros))
                .collect::<Vec<_>>()
                .join(" ")
        });
        println!(
            "  {:>10.3} ms{} {} [{}]",
            slow.micros as f64 / 1e3,
            if slow.micros as f64 > ceiling_us {
                " OVER-CEILING"
            } else {
                ""
            },
            describe(slow.base),
            stages
        );
    }
}

/// One window of a timed run: its answer rate and latency percentiles.
struct Window {
    rate: f64,
    p50: f64,
    p99: f64,
    samples: usize,
}

/// Splits the run by completion time into `WINDOWS` consecutive windows
/// (a batch never straddles two).  A request that failed or was refused
/// misses every latency limit, so it counts as an infinite latency.
fn split_windows(outcomes: &[Outcome], elapsed_s: f64) -> Vec<Window> {
    let window_s = elapsed_s / WINDOWS as f64;
    let mut done: Vec<(f64, f64, bool)> = outcomes
        .iter()
        .map(|o| match o.answer {
            Answer::Ok(_) => (o.done_s, o.latency_ms, true),
            _ => (o.done_s, f64::INFINITY, false),
        })
        .collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let close = |part: &[(f64, f64, bool)], seconds: f64| {
        let latencies = sorted(&part.iter().map(|d| d.1).collect::<Vec<_>>());
        Window {
            rate: part.iter().filter(|d| d.2).count() as f64 / seconds,
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
            samples: part.len(),
        }
    };
    let mut out = Vec::new();
    let (mut first, mut start) = (0, 0.0);
    for i in 0..done.len() {
        let t = done[i].0;
        let at_end = i + 1 == done.len();
        let last_at_t = at_end || done[i + 1].0 > t;
        // The last window takes whatever remains.
        if at_end || (last_at_t && t - start >= window_s && out.len() + 1 < WINDOWS) {
            out.push(close(&done[first..=i], (t - start).max(f64::MIN_POSITIVE)));
            (first, start) = (i + 1, t);
        }
    }
    out
}

/// A segment's rate and latency percentiles: medians over its windows.
fn segment_figures(outcomes: &[Outcome], elapsed_s: f64) -> Window {
    let mut windows = split_windows(outcomes, elapsed_s);
    if windows.iter().any(|w| w.samples < MIN_SAMPLES) {
        let rate = median(&windows.iter().map(|w| w.rate).collect::<Vec<_>>());
        windows = split_windows(outcomes, f64::INFINITY);
        windows[0].rate = rate;
    }
    let of = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let figures = Window {
        rate: of(|w| w.rate),
        p50: of(|w| w.p50),
        p99: of(|w| w.p99),
        samples: outcomes.len(),
    };
    println!(
        "segment: {} requests, {:.1}/s, p50 {:.3} ms, p99 {:.3} ms",
        figures.samples, figures.rate, figures.p50, figures.p99
    );
    figures
}

/// The eight end-to-end metrics.  The timed run is `SEGMENTS` segments
/// with the reference check of each in between; rate and latencies are
/// the best segment's (see `segment_figures`), so a stall of the host has
/// to cover every segment to move them.
fn end_to_end(setup: &[f64], segments: &[(&[Outcome], f64)], s: &Score, rss_mb: f64) -> Report {
    let figures: Vec<Window> = segments
        .iter()
        .map(|&(outcomes, elapsed_s)| segment_figures(outcomes, elapsed_s))
        .collect();
    let best = |f: fn(&Window) -> f64, max: bool| {
        let values = figures.iter().map(f);
        if max {
            values.fold(f64::MIN, f64::max)
        } else {
            values.fold(f64::MAX, f64::min)
        }
    };
    let attempted = s.attempted.max(1) as f64;
    let mut report = scored_report(s);
    report.add("setup_s", median(setup), "s", setup.len());
    report.add("pairs_per_s", best(|w| w.rate, true), "1/s", s.answered);
    report.add("latency_p50_ms", best(|w| w.p50, false), "ms", s.attempted);
    report.add("latency_p99_ms", best(|w| w.p99, false), "ms", s.attempted);
    report.add(
        "decided_frac",
        s.decided as f64 / attempted,
        "fraction",
        s.attempted,
    );
    report.add(
        "witness_frac",
        s.witnessed as f64 / s.not_contained.max(1) as f64,
        "fraction",
        s.not_contained,
    );
    report.add("ok_frac", s.ok as f64 / attempted, "fraction", s.attempted);
    report.add("peak_rss_mb", rss_mb, "MB", 1);
    report
}

fn print_problems(s: &Score) {
    for problem in &s.problems {
        println!("MISMATCH {problem}");
    }
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// What the workload's own engine (or daemon) reported for the traced run.
struct EngineSide {
    requests: usize,
    hits: f64,
    inserts: f64,
    evictions: f64,
    deduped: f64,
}

struct ServeSide {
    overhead_us: f64,
    batch_size_mean: f64,
    busy_frac: f64,
}

struct PersistSide {
    load_ms: f64,
    bytes_per_entry: f64,
}

/// Snapshot load as a restarting daemon does it: decode, build an engine
/// with the daemon's options, restore.  Median of three.
fn persist_side(bytes: &[u8], options: &EngineOptions) -> Result<PersistSide, String> {
    let mut times = Vec::new();
    let mut entries = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let snapshot = decode_snapshot(bytes).map_err(|e| e.to_string())?;
        let engine = Engine::new(options.clone());
        entries = engine.restore_snapshot(&snapshot);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(PersistSide {
        load_ms: median(&times),
        bytes_per_entry: bytes.len() as f64 / entries.max(1) as f64,
    })
}

fn serve_side(run: &ClientRun, metrics: &HashMap<String, f64>) -> ServeSide {
    let overheads: Vec<f64> = run
        .outcomes
        .iter()
        .zip(&run.micros)
        .filter(|(o, _)| matches!(o.answer, Answer::Ok(_)))
        .map(|(o, &micros)| o.latency_ms * 1e3 - micros as f64)
        .collect();
    let busy = run
        .outcomes
        .iter()
        .filter(|o| o.answer == Answer::Busy)
        .count();
    ServeSide {
        overhead_us: median(&overheads),
        batch_size_mean: family_total(metrics, "bqc_serve_batch_size_sum")
            / family_total(metrics, "bqc_serve_batch_size_count").max(1.0),
        busy_frac: busy as f64 / run.outcomes.len().max(1) as f64,
    }
}

/// Sends `requests` once through a cold daemon (default options, pinned
/// workers) to measure the serve layer on a batch workload's questions.
fn serve_probe(args: &Args, requests: &[Request]) -> Result<ServeSide, String> {
    let metrics_path = args.work.join("probe.prom");
    let (daemon, _) = serve::spawn(&args.bqc, &daemon_args(None, &metrics_path, false))?;
    let run = closed_loop(
        &daemon.addr,
        requests,
        CONNS,
        WINDOW,
        None,
        Some(requests.len()),
    )?;
    daemon.shutdown()?;
    let metrics = prometheus_values(&std::fs::read_to_string(&metrics_path).unwrap_or_default());
    Ok(serve_side(&run, &metrics))
}

fn counters_in_process() -> HashMap<String, f64> {
    prometheus_values(&bqc::obs::prometheus_text(&bqc::obs::snapshot()))
}

/// The per-layer report of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    s: &Score,
    untraced: &LayerPass,
    traced: &LayerPass,
    engine: &EngineSide,
    counters: &HashMap<String, f64>,
    persist: &PersistSide,
    serve: &ServeSide,
) -> Report {
    let mut r = scored_report(s);
    let n = traced.requests.max(1) as f64;
    let requests = engine.requests.max(1) as f64;
    let decisions = traced.decisions.max(1) as f64;
    r.add(
        "parse.us_per_pair",
        traced.parse_s * 1e6 / n,
        "us",
        traced.requests,
    );
    r.add(
        "canon.us_per_pair",
        traced.canon_s * 1e6 / n,
        "us",
        traced.requests,
    );
    r.add(
        "engine.dedup_frac",
        engine.deduped / requests,
        "fraction",
        engine.requests,
    );
    r.add(
        "cache.hit_frac",
        engine.hits / requests,
        "fraction",
        engine.requests,
    );
    r.add("cache.inserts", engine.inserts, "count", engine.requests);
    r.add(
        "cache.evictions",
        engine.evictions,
        "count",
        engine.requests,
    );
    r.add(
        "cache.probe_us",
        traced.probe_s * 1e6 / n,
        "us",
        traced.requests,
    );
    for stage in STAGES {
        let us = traced.stage_us.get(stage).copied().unwrap_or(0);
        r.add(
            format!("stage.{stage}.ms"),
            us as f64 / 1e3,
            "ms",
            traced.decisions,
        );
    }
    for stage in STAGES {
        let decided = traced.stage_decided.get(stage).copied().unwrap_or(0);
        r.add(
            format!("stage.{stage}.decided_frac"),
            decided as f64 / decisions,
            "fraction",
            traced.decisions,
        );
    }
    let witness: Vec<f64> = traced
        .witness_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    r.add(
        "witness.ms_p99",
        percentile(&sorted(&witness), 0.99),
        "ms",
        witness.len(),
    );
    let counter = |name: &str| family_total(counters, name);
    for (metric, name) in [
        ("iip.probes", "bqc_iip_probes_total"),
        ("iip.separation_rounds", "bqc_iip_separation_rounds_total"),
        ("iip.escalations", "bqc_iip_escalations_total"),
        ("iip.warm_shape_hits", "bqc_iip_warm_shape_hits_total"),
        (
            "entropy.elementals_scanned",
            "bqc_entropy_elementals_scanned_total",
        ),
        ("lp.solves", "bqc_lp_solves_total"),
        ("lp.pivots", "bqc_lp_pivots_total"),
        ("lp.reinversions", "bqc_lp_reinversions_total"),
        ("lp.scalar_promotions", "bqc_lp_scalar_promotions_total"),
        ("lp.warm_start_hits", "bqc_lp_warm_start_hits_total"),
    ] {
        r.add(metric, counter(name), "count", engine.requests);
    }
    r.add(
        "lp.solve_ms",
        traced.lp_solve_s * 1e3,
        "ms",
        traced.decisions,
    );
    r.add("persist.load_ms", persist.load_ms, "ms", 3);
    r.add(
        "persist.bytes_per_entry",
        persist.bytes_per_entry,
        "bytes",
        1,
    );
    r.add("serve.overhead_us", serve.overhead_us, "us", 1);
    r.add("serve.batch_size_mean", serve.batch_size_mean, "count", 1);
    r.add("serve.busy_frac", serve.busy_frac, "fraction", 1);
    r.add(
        "trace.residual_frac",
        traced.residual_s() / traced.wall_s,
        "fraction",
        traced.requests,
    );
    r.add(
        "trace.overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
        "fraction",
        traced.requests,
    );
    r
}

/// Runs the layer pass untraced, traced and untraced again, each on its own
/// cache built by `fresh_cache`, and checks every pass against the verdicts
/// the workload's own engine gave.
fn layer_passes(
    lines: &[String],
    prime: &[String],
    fresh_cache: &dyn Fn() -> DecisionCache,
    skeletons: &SkeletonCache,
    expected: &[String],
) -> Result<(LayerPass, LayerPass), String> {
    // Untraced passes on both sides of the traced one, so the tracing
    // overhead is not an artefact of running first or last.
    let before = layer_pass(lines, prime, &fresh_cache(), skeletons, false);
    let traced = layer_pass(lines, prime, &fresh_cache(), skeletons, true);
    let after = layer_pass(lines, prime, &fresh_cache(), skeletons, false);
    for pass in [&before, &traced, &after] {
        if let Some(i) = (0..lines.len()).find(|&i| pass.verdicts[i] != expected[i]) {
            return Err(format!(
                "layer pass answered {} where the engine answered {} for {}",
                pass.verdicts[i], expected[i], lines[i]
            ));
        }
    }
    let untraced = LayerPass {
        wall_s: (before.wall_s + after.wall_s) / 2.0,
        ..before
    };
    layers::print_attribution(&traced, &untraced);
    Ok((untraced, traced))
}

fn verdict_text(answer: &Answer) -> String {
    match answer {
        Answer::Ok(summary) => summary.to_string(),
        Answer::Busy => "busy".to_string(),
        Answer::Error(e) => format!("error: {e}"),
    }
}

/// Engine-side tallies of a batch run.
fn engine_side(engine: &Engine, before: bqc::engine::CacheStats, timed: &Timed) -> EngineSide {
    let after = engine.cache_stats();
    EngineSide {
        requests: timed.outcomes.len(),
        hits: (after.hits + after.restored_hits - before.hits - before.restored_hits) as f64,
        inserts: (after.misses - before.misses) as f64,
        evictions: (after.evictions - before.evictions) as f64,
        deduped: timed.deduped as f64,
    }
}

/// An empty report carrying a run's correctness tallies.
fn scored_report(s: &Score) -> Report {
    Report {
        correct: s.ok == s.attempted && s.attempted > 0,
        attempted: s.attempted,
        failed: s.attempted - s.ok,
        metrics: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Batch workloads: lp-bound and repeat-mix
// ---------------------------------------------------------------------------

/// A workload fed in-process through `Engine::decide_batch`.
struct BatchWorkload<'a> {
    /// The workload text parsed at set-up (the first requests of the run).
    text: Vec<Request>,
    /// More requests, generated when the parsed ones run out.
    more: Box<dyn FnMut() -> Vec<Request> + 'a>,
    batch: usize,
    /// Untimed batches run first, so caches reach their steady state.
    warm_batches: usize,
    /// The traced run's fixed work, in batches.
    trace_batches: usize,
    /// Requests of the traced run also sent through a daemon.
    probe_requests: usize,
}

fn run_batch_workload(
    args: &Args,
    mut w: BatchWorkload,
    pair_of: &(dyn Fn(usize) -> Pair + Sync),
    expect_of: &(dyn Fn(usize) -> Option<gen::Expect> + Sync),
    describe: &dyn Fn(usize) -> String,
) -> Result<Report, String> {
    let (setup, parsed, engine) = batch_setup(&w.text)?;
    // The traced run replays exactly the requests the engine saw.
    let mut seen: Vec<Request> = if args.trace {
        w.text.clone()
    } else {
        Vec::new()
    };
    let mut batches = Batches {
        parsed: parsed.into(),
        refill: Box::new(|| {
            let requests = (w.more)();
            if args.trace {
                seen.extend(requests.iter().cloned());
            }
            requests
        }),
        size: w.batch,
    };
    run_batches(&engine, &mut batches, 0.0, Some(w.warm_batches))?;
    let before = engine.cache_stats();
    bqc::obs::reset_metrics();
    // The traced run is one segment of fixed work.  A timed run is
    // `SEGMENTS` segments, each checked against the reference before the
    // next starts.
    let (segments, limit) = match args.trace {
        true => (1, Some(w.trace_batches)),
        false => (SEGMENTS, None),
    };
    let mut runs: Vec<Timed> = Vec::new();
    let mut checks = HashMap::new();
    let mut rss: f64 = 0.0;
    let mut side_and_counters = None;
    for k in 0..segments {
        if let Some(last) = runs.last() {
            check_new(&mut checks, &last.outcomes, pair_of, expect_of);
        }
        reset_peak_rss();
        let seconds = args.seconds / segments as f64;
        runs.push(run_batches(&engine, &mut batches, seconds, limit)?);
        rss = rss.max(peak_rss_mb(None));
        if k + 1 == segments {
            // Before the last check, which runs decisions of its own.
            let counters = counters_in_process();
            let side = engine_side(&engine, before, &runs[k]);
            check_new(&mut checks, &runs[k].outcomes, pair_of, expect_of);
            side_and_counters = Some((side, counters));
        }
    }
    drop(batches);
    let (side, counters) = side_and_counters.expect("at least one segment");
    let all: Vec<Outcome> = runs.iter().flat_map(|t| t.outcomes.clone()).collect();
    let s = score(&all, &checks);
    print_problems(&s);
    let mut slowest = Vec::new();
    for slow in runs.iter_mut().flat_map(|t| t.slowest.drain(..)) {
        keep_slowest(&mut slowest, slow);
    }
    print_heavy_tail(&slowest, args.seconds, describe);
    if !args.trace {
        let segments: Vec<(&[Outcome], f64)> = runs
            .iter()
            .map(|t| (&t.outcomes[..], t.elapsed_s))
            .collect();
        return Ok(end_to_end(&setup, &segments, &s, rss));
    }
    let timed = &runs[0];

    let first = w.warm_batches * w.batch;
    let lines = lines_of(&seen);
    let traced_lines = &lines[first..first + timed.outcomes.len()];
    let expected: Vec<String> = timed
        .outcomes
        .iter()
        .map(|o| verdict_text(&o.answer))
        .collect();
    let options = engine.options();
    let fresh_cache = || DecisionCache::new(options.cache_shards, options.shard_capacity);
    let (untraced, traced) = layer_passes(
        traced_lines,
        &lines[..first],
        &fresh_cache,
        engine.skeletons(),
        &expected,
    )?;
    let persist = persist_side(&encode_snapshot(&engine.snapshot()), engine.options())?;
    let serve = serve_probe(args, &seen[first..first + w.probe_requests])?;
    Ok(per_layer(
        &s, &untraced, &traced, &side, &counters, &persist, &serve,
    ))
}

fn lp_bound(args: &Args) -> Result<Report, String> {
    let mut stream = LpStream::new(args.seed);
    // `stream` is borrowed by the generator; lookups use an identical one.
    let lookup = LpStream::new(args.seed);
    let classes = lookup.classes();
    let workload = BatchWorkload {
        text: stream.take(LP_TEXT_BATCHES),
        more: Box::new(|| stream.take(LP_TEXT_BATCHES)),
        batch: gen::LP_BATCH,
        warm_batches: LP_WARM_BATCHES,
        trace_batches: LP_TRACE_BATCHES,
        probe_requests: LP_PROBE_REQUESTS,
    };
    run_batch_workload(
        args,
        workload,
        &|base| lookup.instance(base),
        &|base| Some(classes[lookup.class_of(base)].expect),
        &|base| format!("#{base} {}", classes[lookup.class_of(base)].name),
    )
}

fn repeat_mix(args: &Args) -> Result<Report, String> {
    let excluded = gen::large_witness_indices();
    let pool = gen::draw_pool(
        args.seed,
        0x524d,
        REPEAT_POOL,
        &excluded,
        &mut HashSet::new(),
    );
    let mut stream = ZipfStream::new(&pool, ZIPF_EXPONENT, args.seed);
    let workload = BatchWorkload {
        text: stream.take(REPEAT_TEXT),
        more: Box::new(|| stream.take(REPEAT_TEXT)),
        batch: REPEAT_BATCH,
        warm_batches: REPEAT_WARM / REPEAT_BATCH,
        trace_batches: REPEAT_TRACE / REPEAT_BATCH,
        probe_requests: REPEAT_PROBE_REQUESTS,
    };
    run_batch_workload(
        args,
        workload,
        &|base| pool.pairs[base].clone(),
        &|_| None,
        &|base| {
            let (q1, q2) = &pool.pairs[base];
            format!("{q1} ; {q2}")
        },
    )
}

// ---------------------------------------------------------------------------
// serve-restart
// ---------------------------------------------------------------------------

fn daemon_args(snapshot: Option<&Path>, metrics: &Path, large_cache: bool) -> Vec<String> {
    let mut out = vec![
        "--workers".to_string(),
        WORKERS.to_string(),
        "--metrics-out".to_string(),
        metrics.display().to_string(),
    ];
    if large_cache {
        out.extend(["--capacity".to_string(), SERVE_CAPACITY.to_string()]);
    }
    if let Some(path) = snapshot {
        out.extend(["--snapshot".to_string(), path.display().to_string()]);
    }
    out
}

fn serve_restart(args: &Args) -> Result<Report, String> {
    let excluded = gen::large_witness_indices();
    let mut seen = HashSet::new();
    let pool = gen::draw_pool(args.seed, 0x5352, SERVE_POOL, &excluded, &mut seen);
    let new = gen::draw_pool(args.seed, 0x4e57, SERVE_NEW_POOL, &excluded, &mut seen);
    let pair_of = |base: usize| {
        if base < SERVE_POOL {
            pool.pairs[base].clone()
        } else {
            new.pairs[base - SERVE_POOL].clone()
        }
    };
    let snapshot = args.work.join("serve.snap");
    let metrics_path = args.work.join("serve.prom");
    let _ = std::fs::remove_file(&snapshot);

    // Untimed: a cold daemon answers the whole working set once, then
    // writes its snapshot at shutdown.
    let fill: Vec<Request> = pool
        .pairs
        .iter()
        .enumerate()
        .map(|(base, (q1, q2))| Request {
            base,
            line: gen::pair_line(q1, q2),
        })
        .collect();
    let (daemon, _) = serve::spawn(
        &args.bqc,
        &daemon_args(Some(&snapshot), &metrics_path, true),
    )?;
    let filled = closed_loop(&daemon.addr, &fill, CONNS, WINDOW, None, Some(fill.len()))?;
    daemon.shutdown()?;
    if let Some(bad) = filled
        .outcomes
        .iter()
        .find(|o| !matches!(o.answer, Answer::Ok(_)))
    {
        return Err(format!("fill request failed: {:?}", bad.answer));
    }

    // The snapshot as the fill left it: what every restart restores.
    let snapshot_bytes = std::fs::read(&snapshot).map_err(|e| e.to_string())?;
    let requests = serve_requests(args.seed, SERVE_LINES, &pool, Some(&new));
    let warm = serve_requests(args.seed, SERVE_WARM, &pool, None);

    // Set-up: restart from the snapshot, timed to the listening line.
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for i in 0..SETUP_REPEATS {
        let (d, seconds) = serve::spawn(
            &args.bqc,
            &daemon_args(Some(&snapshot), &metrics_path, true),
        )?;
        setup.push(seconds);
        if d.restored != SERVE_POOL {
            return Err(format!(
                "restored {} entries, expected {SERVE_POOL}",
                d.restored
            ));
        }
        if i + 1 < SETUP_REPEATS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("a running daemon");
    // Warm-up on restored questions only, so the timed phase starts warm.
    closed_loop(&daemon.addr, &warm, CONNS, WINDOW, None, Some(warm.len()))?;
    let stats_before = daemon.admin("!stats")?;
    // As for the batch workloads: the traced run is one segment of fixed
    // work, a timed run `SEGMENTS` segments (each on its own share of the
    // request lines) checked one by one in between.
    let (segments, limit) = match args.trace {
        true => (1, Some(SERVE_TRACE)),
        false => (SEGMENTS, None),
    };
    let seconds = (!args.trace).then_some(args.seconds / segments as f64);
    let share = requests.len() / segments;
    let mut runs: Vec<ClientRun> = Vec::new();
    let mut checks = HashMap::new();
    for k in 0..segments {
        if let Some(last) = runs.last() {
            check_new(&mut checks, &last.outcomes, &pair_of, &|_| None);
        }
        let lines = &requests[k * share..(k + 1) * share];
        runs.push(closed_loop(
            &daemon.addr,
            lines,
            CONNS,
            WINDOW,
            seconds,
            limit,
        )?);
    }
    let stats_line = daemon.admin("!stats")?;
    let rss = peak_rss_mb(Some(daemon.pid()));
    daemon.shutdown()?;
    println!("daemon {stats_line}");
    let metrics = prometheus_values(&std::fs::read_to_string(&metrics_path).unwrap_or_default());

    let last = runs.last().expect("at least one segment");
    check_new(&mut checks, &last.outcomes, &pair_of, &|_| None);
    let all: Vec<Outcome> = runs.iter().flat_map(|r| r.outcomes.clone()).collect();
    let s = score(&all, &checks);
    print_problems(&s);
    let slowest = serve_slowest(&runs, &pair_of);
    print_heavy_tail(&slowest, args.seconds, &|base| {
        let (q1, q2) = pair_of(base);
        format!("{q1} ; {q2}")
    });
    if !args.trace {
        let segments: Vec<(&[Outcome], f64)> = runs
            .iter()
            .map(|r| (&r.outcomes[..], r.elapsed_s))
            .collect();
        return Ok(end_to_end(&setup, &segments, &s, rss));
    }
    let run = &runs[0];

    // Engine-side tallies come from the daemon: `!stats` and its metrics.
    let field = |line: &str, key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let stat = |key: &str| field(&stats_line, key) - field(&stats_before, key);
    let side = EngineSide {
        requests: run.outcomes.len(),
        hits: stat("cached") + stat("restored"),
        inserts: stat("fresh"),
        evictions: family_total(&metrics, "bqc_engine_cache_evictions_total"),
        deduped: stat("deduped"),
    };
    let persist = persist_side(
        &snapshot_bytes,
        &EngineOptions {
            shard_capacity: SERVE_CAPACITY,
            ..engine_options()
        },
    )?;
    let restored = decode_snapshot(&snapshot_bytes).map_err(|e| e.to_string())?;
    let fresh_cache = || {
        let cache = DecisionCache::new(engine_options().cache_shards, SERVE_CAPACITY);
        for entry in &restored.entries {
            cache.restore(fnv1a(entry.key.as_bytes()), &entry.key, entry.summary);
        }
        cache
    };
    let sent = &requests[..run.outcomes.len()];
    let mut by_base: HashMap<usize, String> = HashMap::new();
    for o in &run.outcomes {
        by_base.insert(o.base, verdict_text(&o.answer));
    }
    let expected: Vec<String> = sent.iter().map(|r| by_base[&r.base].clone()).collect();
    let (untraced, traced) = layer_passes(
        &lines_of(sent),
        &[],
        &fresh_cache,
        &SkeletonCache::new(),
        &expected,
    )?;
    let serve = serve_side(run, &metrics);
    Ok(per_layer(
        &s, &untraced, &traced, &side, &metrics, &persist, &serve,
    ))
}

/// Serve-restart traffic: with `new`, `SERVE_NEW_SHARE` of requests ask a
/// question the daemon has not seen (each once); the rest ask a uniformly
/// chosen question of the restored working set.  Every request is freshly
/// renamed.
fn serve_requests(seed: u64, count: usize, pool: &Pool, new: Option<&Pool>) -> Vec<Request> {
    let mut rng = gen::rng(seed, 0x5251, count as u64);
    let mut next_new = 0;
    (0..count)
        .map(|_| {
            if let Some(new) = new.filter(|_| gen::unit(&mut rng) < SERVE_NEW_SHARE) {
                let i = next_new % new.pairs.len();
                next_new += 1;
                Request {
                    base: SERVE_POOL + i,
                    line: gen::renamed_line(&new.pairs[i], &mut rng),
                }
            } else {
                let base = (gen::unit(&mut rng) * pool.pairs.len() as f64) as usize;
                Request {
                    base,
                    line: gen::renamed_line(&pool.pairs[base], &mut rng),
                }
            }
        })
        .collect()
}

/// The five slowest fresh decisions the daemon reported, with stage
/// breakdowns re-derived in-process (the trace does not travel the wire).
fn serve_slowest(runs: &[ClientRun], pair_of: &dyn Fn(usize) -> Pair) -> Vec<Slow> {
    let mut slowest = Vec::new();
    let answered = runs
        .iter()
        .flat_map(|run| run.outcomes.iter().zip(&run.micros).zip(&run.provenance));
    for ((o, &micros), provenance) in answered {
        if provenance == "fresh" {
            keep_slowest(
                &mut slowest,
                Slow {
                    micros,
                    base: o.base,
                    trace: None,
                },
            );
        }
    }
    for slow in &mut slowest {
        let (q1, q2) = pair_of(slow.base);
        let pair = canonicalize_pair(&q1, &q2);
        slow.trace = decide_containment_traced(
            &mut DecideContext::new(),
            &pair.q1.query,
            &pair.q2.query,
            &DecideOptions::default(),
        )
        .ok()
        .map(|d| d.trace);
    }
    slowest
}
