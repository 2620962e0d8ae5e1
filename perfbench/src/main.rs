//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` interleaves untraced and traced passes and reports the
//! per-layer metrics.

use ofw_parallel::ThreadPool;
use perfbench::report::{end_to_end, median, per_layer, result_json, Metric};
use perfbench::run::{cold_prepares, timed_runs, warm_up, Limits, RunResult};
use perfbench::workload::{blowup_cases, build_cases, stream_order, Case, Size, Workload};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <join-enum|olap-exec|short-queries> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repetitions of an untraced run; `setup_s` is their median.
/// They are spread over the run, one before each of as many slices of
/// the timed loop: on a shared host the same set-up took up to 1.6 times
/// as long from one few-second stretch to the next, and five set-ups in
/// a row at the start of each run gave medians 33% apart between two
/// sets of ten runs of the same code.
const SETUP_REPS: usize = 7;

/// Threads of the exec pool. One: on the 2-vCPU machine the benchmark
/// was tuned on, a pool of two gave no speed-up (olap-exec `exec_ms_p50`
/// 15.7 vs 14.2 ms) and about five times the run-to-run spread (0.23 vs
/// 0.04 over interleaved runs), more than the regression bound. The
/// benchmark's tests check that 1 and `nproc` threads give the same
/// counters and outputs.
const EXEC_THREADS: usize = 1;

/// Timed queries per run, at least (so p90 has ten samples above it).
const MIN_QUERIES: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn failed(run: &RunResult) -> usize {
    run.samples.iter().filter(|s| s.failure.is_some()).count()
}

fn wrong_answers(run: &RunResult) -> usize {
    run.samples
        .iter()
        .filter(|s| s.failure.as_ref().is_some_and(|f| f.is_wrong_answer()))
        .count()
}

fn print_summary(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The slowest cases of a run, by mean query time, with their layer
/// split and work — where to look when a number moves.
fn print_slowest(cases: &[Case], run: &RunResult, top: usize) {
    let mut per_case: Vec<(f64, [f64; 4], usize)> = vec![(0.0, [0.0; 4], 0); cases.len()];
    for s in &run.samples {
        let e = &mut per_case[s.case];
        e.0 += s.query.as_secs_f64() * 1e3;
        for (k, d) in s.layers.iter().enumerate() {
            e.1[k] += d.as_secs_f64() * 1e3;
        }
        e.2 += 1;
    }
    let mut idx: Vec<usize> = (0..cases.len()).filter(|&i| per_case[i].2 > 0).collect();
    idx.sort_by(|&a, &b| {
        (per_case[b].0 / per_case[b].2 as f64).total_cmp(&(per_case[a].0 / per_case[a].2 as f64))
    });
    println!(
        "slowest queries (mean ms: query = extract + prepare + plan + execute; rows processed)"
    );
    for &i in idx.iter().take(top) {
        let (q, l, n) = per_case[i];
        let n = n as f64;
        let rows = run.counters[i]
            .as_ref()
            .map_or(0, |c| c.exec.ops.values().map(|s| s.rows).sum::<u64>());
        println!(
            "  {:<28} {:>9.3} = {:>7.3} + {:>9.3} + {:>9.3} + {:>9.3}  {:>9}",
            cases[i].name,
            q / n,
            l[0] / n,
            l[1] / n,
            l[2] / n,
            l[3] / n,
            rows
        );
    }
}

/// One set-up: builds every case (data, statistics, reference answers)
/// into `cases` and runs the warm-up pass; returns its wall-clock in s.
/// The previous set-up is freed first, so peak memory is one set-up's.
fn set_up(args: &Args, pool: &ThreadPool, cases: &mut Vec<Case>) -> Result<f64, String> {
    drop(std::mem::take(cases));
    let t0 = Instant::now();
    *cases = build_cases(args.workload, Size::Full, args.seed)?;
    warm_up(cases, pool);
    Ok(t0.elapsed().as_secs_f64())
}

fn run(args: &Args) -> Result<(), String> {
    let pool = ThreadPool::new(EXEC_THREADS);
    // An untraced run sets up `SETUP_REPS` times, one set-up before each
    // equal slice of the timed loop.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut cases = Vec::new();
    setup_s.push(set_up(args, &pool, &mut cases)?);
    let order = stream_order(cases.len(), args.seed);
    let limits = Limits {
        seconds: args.seconds / reps as f64,
        min_queries: MIN_QUERIES.div_ceil(reps),
    };
    println!(
        "perfbench {} seed {}: {} distinct queries, exec pool of {} threads",
        args.workload.name(),
        args.seed,
        cases.len(),
        pool.threads(),
    );

    let runs: Vec<RunResult>;
    let metrics = if args.trace {
        let mut arms = timed_runs(&cases, &order, &pool, &limits, &[false, true]).into_iter();
        let (untraced, traced) = (
            arms.next().expect("untraced arm"),
            arms.next().expect("traced arm"),
        );
        let blowup = cold_prepares(&blowup_cases(args.seed)?)?;
        let attempted = untraced.samples.len() + traced.samples.len();
        let metrics = per_layer(
            &untraced,
            &traced,
            attempted,
            failed(&untraced) + failed(&traced),
            blowup,
        );
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
        )
        .join("perfbench");
        let file = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, traced.trace.chrome_json()))
        {
            Ok(()) => println!("spans written to {}", file.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
        print_slowest(&cases, &traced, 10);
        runs = vec![untraced, traced];
        metrics
    } else {
        let mut run = RunResult {
            counters: vec![None; cases.len()],
            ..RunResult::default()
        };
        for k in 0..reps {
            if k > 0 {
                setup_s.push(set_up(args, &pool, &mut cases)?);
            }
            run.absorb(
                timed_runs(&cases, &order, &pool, &limits, &[false])
                    .pop()
                    .expect("one arm"),
            );
        }
        println!(
            "set-ups (s, in run order): {}",
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "timed queries: {} in {} passes (each timing below is over the distinct queries' best times)",
            run.samples.len(),
            run.samples.len() / cases.len(),
        );
        let metrics = end_to_end(&run, median(setup_s), peak_rss_mb()?);
        runs = vec![run];
        metrics
    };
    print_summary(&metrics);

    let attempted: usize = runs.iter().map(|r| r.samples.len()).sum();
    let failed: usize = runs.iter().map(failed).sum();
    let wrong: usize = runs.iter().map(wrong_answers).sum();
    for r in &runs {
        for (&case, f) in &r.failures {
            println!("FAILED {}: {f:?}", cases[case].name);
        }
    }
    // `correct` is about the answers the program gave: every answer must
    // match its reference. Queries that gave none (panic or error) are
    // counted in `failed`.
    println!("{}", result_json(wrong == 0, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A query that panics is caught and counted; print only the first
    // few panic messages so a failing query does not flood stderr.
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) < 5 {
            default_hook(info);
        }
    }));
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
