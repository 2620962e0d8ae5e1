//! The benchmark's own tests, on shortened forms of every workload.

use ofw_parallel::{available_threads, ThreadPool};
use perfbench::report::{end_to_end, per_layer};
use perfbench::run::{timed_runs, Failure, Limits, RunResult, Sample};
use perfbench::workload::{build_cases, stream_order, Case, Size, Workload};
use std::time::Duration;

const SEED: u64 = 7;

fn cases(w: Workload) -> Vec<Case> {
    build_cases(w, Size::Short, SEED).expect("reference plans run")
}

/// Exactly two passes per arm: no time floor, and the run stops at the
/// first pass boundary with two passes' worth of queries.
fn run(cases: &[Case], threads: usize, traced: &[bool]) -> Vec<RunResult> {
    let pool = ThreadPool::new(threads);
    let limits = Limits {
        seconds: 0.0,
        min_queries: 2 * cases.len(),
    };
    timed_runs(
        cases,
        &stream_order(cases.len(), SEED),
        &pool,
        &limits,
        traced,
    )
}

/// The deterministic per-query trail of a run: which case ran, whether
/// preparation hit the cache, how many rows it processed and how it
/// failed.
fn trail(r: &RunResult) -> Vec<(usize, bool, u64, bool)> {
    r.samples
        .iter()
        .map(|s| (s.case, s.cache_hit, s.rows_processed, s.failure.is_some()))
        .collect()
}

#[test]
fn instances_are_deterministic_per_seed() {
    for w in Workload::ALL {
        let (a, b) = (cases(w), cases(w));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.columns, y.columns, "{}: columns", x.name);
            assert_eq!(x.reference, y.reference, "{}: reference", x.name);
        }
        let other = build_cases(w, Size::Short, SEED + 1).expect("reference plans run");
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.columns != y.columns),
            "{}: another seed gives other data",
            w.name()
        );
    }
}

#[test]
fn data_rule_keeps_results_nonempty_and_keys_real() {
    for w in Workload::ALL {
        for case in cases(w) {
            assert!(
                !case.reference.is_empty(),
                "{}: empty reference answer",
                case.name
            );
            for (q, &rel) in case.query.relations.iter().enumerate() {
                let r = case.catalog.relation(rel);
                assert_eq!(
                    r.cardinality as usize,
                    case.columns[q][0].len(),
                    "{}: row count",
                    case.name
                );
                for (k, &a) in r.attrs.iter().enumerate() {
                    let col = &case.columns[q][k];
                    let distinct: std::collections::HashSet<i64> = col.iter().copied().collect();
                    assert_eq!(
                        case.catalog.is_unique(a),
                        distinct.len() == col.len(),
                        "{}: {} is unique in the catalog iff its column is",
                        case.name,
                        case.catalog.attr_name(a)
                    );
                }
            }
            for j in &case.query.joins {
                assert!(
                    j.selectivity > 0.0 && j.selectivity <= 1.0,
                    "{}: selectivity",
                    case.name
                );
            }
        }
    }
}

#[test]
fn deterministic_counters_repeat_exactly() {
    for w in Workload::ALL {
        let cases = cases(w);
        let a = run(&cases, available_threads(), &[false])
            .pop()
            .expect("one arm");
        let b = run(&cases, available_threads(), &[false])
            .pop()
            .expect("one arm");
        assert_eq!(a.samples.len(), 2 * cases.len());
        assert_eq!(
            a.counters,
            b.counters,
            "{}: counters differ between runs",
            w.name()
        );
        assert_eq!(
            trail(&a),
            trail(&b),
            "{}: per-query trail differs",
            w.name()
        );
        assert_eq!(a.failures, b.failures, "{}: failures differ", w.name());
        // Every pass starts on an empty cache, so both passes hit alike.
        let (first, second) = a.samples.split_at(cases.len());
        assert!(first
            .iter()
            .zip(second)
            .all(|(x, y)| x.case == y.case && x.cache_hit == y.cache_hit));
        for s in &a.samples {
            if let Some(f) = &s.failure {
                assert!(
                    !f.is_wrong_answer(),
                    "{}: {} answered wrongly: {f:?}",
                    w.name(),
                    cases[s.case].name
                );
            }
        }
    }
}

/// An untraced run is timed in slices with a set-up between them; the
/// absorbed slices must read as one run.
#[test]
fn slices_absorb_into_one_run() {
    let cases = cases(Workload::ShortQueries);
    let whole = run(&cases, 1, &[false]).pop().expect("one arm");
    let pool = ThreadPool::new(1);
    let one_pass = Limits {
        seconds: 0.0,
        min_queries: 0,
    };
    let order = stream_order(cases.len(), SEED);
    let mut sliced = RunResult {
        counters: vec![None; cases.len()],
        ..RunResult::default()
    };
    for _ in 0..2 {
        sliced.absorb(
            timed_runs(&cases, &order, &pool, &one_pass, &[false])
                .pop()
                .expect("one arm"),
        );
    }
    assert_eq!(trail(&sliced), trail(&whole));
    assert_eq!(sliced.counters, whole.counters);
    assert_eq!(sliced.failures, whole.failures);
}

#[test]
fn exec_thread_count_changes_neither_counters_nor_outputs() {
    let threads = available_threads().max(2);
    for w in Workload::ALL {
        let cases = cases(w);
        let serial = run(&cases, 1, &[false]).pop().expect("one arm");
        let pooled = run(&cases, threads, &[false]).pop().expect("one arm");
        // `Counters` carries the execution counters and a hash of each
        // output table.
        assert_eq!(
            serial.counters,
            pooled.counters,
            "{}: 1 vs {threads} threads",
            w.name()
        );
        assert_eq!(
            trail(&serial),
            trail(&pooled),
            "{}: 1 vs {threads} threads",
            w.name()
        );
    }
}

#[test]
fn layer_split_adds_up_to_query_time() {
    for w in Workload::ALL {
        let cases = cases(w);
        let runs = run(&cases, available_threads(), &[false, true]);
        let (untraced, traced) = (&runs[0], &runs[1]);
        for s in untraced.samples.iter().chain(&traced.samples) {
            let busy: Duration = s.layers.iter().sum();
            assert!(busy <= s.query, "{}: layers outlast their query", w.name());
        }
        // One `query` span and four layer spans per traced query; none in
        // the untraced arm.
        assert!(untraced.trace.records().is_empty());
        let records = traced.trace.records();
        assert_eq!(
            records.len(),
            5 * traced.samples.len(),
            "{}: spans",
            w.name()
        );
        for (spans, sample) in records.chunks(5).zip(&traced.samples) {
            let names: Vec<&str> = spans.iter().map(|r| r.name).collect();
            assert_eq!(names, ["query", "extract", "prepare", "plan", "execute"]);
            assert!(
                spans[1..].iter().all(|r| r.depth == 1),
                "{}: layer spans nest under query",
                w.name()
            );
            assert!(
                Duration::from_micros(spans[0].dur_us) <= sample.query,
                "{}: the query span lies inside the query's time",
                w.name()
            );
        }

        let attempted = untraced.samples.len() + traced.samples.len();
        let metrics = per_layer(untraced, traced, attempted, 0, (Duration::ZERO, 0));
        let value = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
        for suffix in ["", "_untraced"] {
            let parts: f64 = [
                "query.extract_ms",
                "core.prepare_ms",
                "plangen.plan_ms",
                "exec.exec_ms",
                "bench.untimed_ms",
            ]
            .iter()
            .map(|m| value(&format!("{m}{suffix}")))
            .sum();
            let whole = value(&format!("bench.query_ms_mean{suffix}"));
            assert!(
                (parts - whole).abs() <= 1e-6 * whole.max(1.0),
                "{}{suffix}: layers + untimed = {parts} but queries took {whole}",
                w.name()
            );
        }
    }
}

#[test]
fn end_to_end_takes_each_querys_best_over_passes() {
    let sample = |case, ms| Sample {
        case,
        query: Duration::from_millis(ms),
        ..Sample::default()
    };
    // Two queries, three passes: query 0 takes 3, 2 and 9 ms, query 1
    // takes 4, 5 and 6 ms.
    let mut run = RunResult {
        samples: [(0, 3), (1, 4), (0, 2), (1, 5), (0, 9), (1, 6)]
            .into_iter()
            .map(|(case, ms)| sample(case, ms))
            .collect(),
        counters: vec![None, None],
        ..RunResult::default()
    };
    let value = |run: &RunResult, name: &str| {
        end_to_end(run, 1.0, 1.0)
            .into_iter()
            .find(|m| m.name == name)
            .expect(name)
            .value
    };
    // Best times 2 and 4 ms.
    assert!((value(&run, "query_ms_p50") - 3.0).abs() < 1e-9);
    assert!((value(&run, "queries_per_s") - 2.0 / 6e-3).abs() < 1e-6);
    // A query that failed in one pass ranks last and drops out of the
    // throughput.
    run.samples[3].failure = Some(Failure::Mismatch);
    assert_eq!(value(&run, "query_ms_p90"), 1e9);
    assert!((value(&run, "queries_per_s") - 1.0 / 2e-3).abs() < 1e-6);
}

#[test]
fn benchmark_json_lists_every_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let cases = cases(Workload::OlapExec);
    let runs = run(&cases, available_threads(), &[false, true]);
    let e2e = end_to_end(&runs[0], 1.0, 1.0);
    let layers = per_layer(&runs[0], &runs[1], 1, 0, (Duration::ZERO, 0));
    let listed = json.matches("\"name\":").count();
    for m in e2e.iter().chain(&layers) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        listed,
        e2e.len() + layers.len() + Workload::ALL.len(),
        "no stale entries"
    );
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "workload {}",
            w.name()
        );
    }
}
