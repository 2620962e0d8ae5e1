//! Turns timed runs into the named metrics the benchmark prints.

use crate::run::{Counters, RunResult, Sample, OPS, PHASES};
use std::time::Duration;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Which direction is better: `lower` or `higher`.
    pub better: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        value,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a percentile reads when it lands on a failed query: failures
/// rank as slower than every answer, and JSON has no infinity.
const FAILED_MS: f64 = 1e9;

/// Linear-interpolated percentile of `p` in `[0, 1]` over per-sample
/// values, failed samples (`None`) ranked last.
fn percentile(values: &[Option<f64>], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|x| x.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (v[pos.floor() as usize], v[pos.ceil() as usize]);
    let x = if lo == hi {
        lo
    } else {
        lo + (hi - lo) * (pos - pos.floor())
    };
    if x.is_finite() {
        x
    } else {
        FAILED_MS
    }
}

/// Each distinct query's best (lowest) time over the run's passes, in
/// ms; `None` for a query that failed in some pass.
fn best_per_query(run: &RunResult, f: impl Fn(&Sample) -> Duration) -> Vec<Option<f64>> {
    let mut best = vec![Some(f64::INFINITY); run.counters.len()];
    for s in &run.samples {
        let b = &mut best[s.case];
        *b = match (*b, &s.failure) {
            (Some(x), None) => Some(x.min(ms(f(s)))),
            _ => None,
        };
    }
    best
}

fn optimize(s: &Sample) -> Duration {
    s.layers[0] + s.layers[1] + s.layers[2]
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The end-to-end metrics of an untraced run. Every pass runs every
/// query once, in the same order and on a fresh cache, so the executions
/// of one query do the same work. Each query's best time over the run's
/// passes is taken; the percentiles are over the workload's distinct
/// queries, and `queries_per_s` is the answered distinct queries over the
/// sum of their best times. Load from outside the process only ever slows
/// an execution down, so the best of many executions is the least
/// disturbed estimate of the program's own speed on a shared machine.
pub fn end_to_end(run: &RunResult, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let pct = |f: fn(&Sample) -> Duration, p: f64| percentile(&best_per_query(run, f), p);
    let answered: Vec<f64> = best_per_query(run, |s| s.query)
        .into_iter()
        .flatten()
        .collect();
    // No answered query reads as no throughput, not as 0/0.
    let qps = if answered.is_empty() {
        0.0
    } else {
        answered.len() as f64 / (answered.iter().sum::<f64>() / 1e3)
    };
    vec![
        metric("query_ms_p50", "ms", "lower", pct(|s| s.query, 0.5)),
        metric("query_ms_p90", "ms", "lower", pct(|s| s.query, 0.9)),
        metric("optimize_ms_p50", "ms", "lower", pct(optimize, 0.5)),
        metric("optimize_ms_p90", "ms", "lower", pct(optimize, 0.9)),
        metric("exec_ms_p50", "ms", "lower", pct(|s| s.layers[3], 0.5)),
        metric("exec_ms_p90", "ms", "lower", pct(|s| s.layers[3], 0.9)),
        metric("queries_per_s", "1/s", "higher", qps),
        metric("setup_s", "s", "lower", setup_s),
        metric("peak_rss_mb", "MB", "lower", peak_rss_mb),
    ]
}

/// Mean per query, in ms, of a per-sample duration.
fn mean_ms(run: &RunResult, f: impl Fn(&Sample) -> Duration) -> f64 {
    let total: Duration = run.samples.iter().map(f).sum();
    ms(total) / run.samples.len() as f64
}

fn sum(counters: &[&Counters], f: impl Fn(&Counters) -> u64) -> f64 {
    counters.iter().map(|c| f(c)).sum::<u64>() as f64
}

fn rows_processed(c: &Counters) -> u64 {
    c.exec.ops.values().map(|s| s.rows).sum()
}

/// Symmetric ratio between the winner root's estimated and executed
/// cardinality (both floored at one row).
fn root_qerror(c: &Counters) -> f64 {
    let est = c.root_card.max(1.0);
    let act = (c.exec.rows_out as f64).max(1.0);
    (est / act).max(act / est)
}

/// The per-layer metrics: layer times of the traced arm next to the
/// untraced arm's, counters from each case's first execution in the
/// traced arm, and the cold preparation of the keyed-star blow-ups
/// (`blowup`: summed time and NFSM nodes).
pub fn per_layer(
    untraced: &RunResult,
    traced: &RunResult,
    attempted: usize,
    failed: usize,
    blowup: (Duration, u64),
) -> Vec<Metric> {
    let n = traced.samples.len() as f64;
    let layer_ms = |run: &RunResult, k: usize| mean_ms(run, |s| s.layers[k]);
    let untimed_ms =
        |run: &RunResult| mean_ms(run, |s| s.query.saturating_sub(s.layers.iter().sum()));
    let query_ms = |run: &RunResult| mean_ms(run, |s| s.query);

    let counters: Vec<&Counters> = traced.counters.iter().flatten().collect();
    let cold: Vec<_> = counters
        .iter()
        .filter_map(|c| c.cold_prep.as_ref())
        .collect();
    let cold_sum =
        |f: fn(&crate::run::ColdPrep) -> u64| cold.iter().map(|c| f(c)).sum::<u64>() as f64;
    let plans = sum(&counters, |c| c.plans);
    let bound_pruned = sum(&counters, |c| c.bound_pruned);
    let dominated = sum(&counters, |c| c.pruned_dominated);
    let mut qerrors: Vec<Option<f64>> = counters.iter().map(|c| Some(root_qerror(c))).collect();
    if qerrors.is_empty() {
        qerrors.push(Some(1.0));
    }
    let exec_time: Duration = traced.samples.iter().map(|s| s.layers[3]).sum();
    let rows_all: u64 = traced.samples.iter().map(|s| s.rows_processed).sum();

    let mut out = vec![
        metric("query.extract_ms", "ms", "lower", layer_ms(traced, 0)),
        metric(
            "query.extract_ms_untraced",
            "ms",
            "lower",
            layer_ms(untraced, 0),
        ),
        metric(
            "query.interesting_props",
            "count",
            "lower",
            sum(&counters, |c| c.interesting_props),
        ),
        metric("core.prepare_ms", "ms", "lower", layer_ms(traced, 1)),
        metric(
            "core.prepare_ms_untraced",
            "ms",
            "lower",
            layer_ms(untraced, 1),
        ),
        metric(
            "core.cache_hit_ratio",
            "ratio",
            "higher",
            traced.samples.iter().filter(|s| s.cache_hit).count() as f64 / n,
        ),
        metric("core.cold_prepares", "count", "lower", cold.len() as f64),
        metric("core.blowup_prepare_ms", "ms", "lower", ms(blowup.0)),
        metric("core.blowup_nfsm_nodes", "count", "lower", blowup.1 as f64),
        metric(
            "core.nfsm_nodes",
            "count",
            "lower",
            cold_sum(|c| c.nfsm_nodes),
        ),
        metric(
            "core.dfsm_states",
            "count",
            "lower",
            cold_sum(|c| c.dfsm_states),
        ),
        metric(
            "core.pruned_fds",
            "count",
            "higher",
            cold_sum(|c| c.pruned_fds),
        ),
        metric(
            "core.precomputed_bytes",
            "bytes",
            "lower",
            cold_sum(|c| c.precomputed_bytes),
        ),
        metric("plangen.plan_ms", "ms", "lower", layer_ms(traced, 2)),
        metric(
            "plangen.plan_ms_untraced",
            "ms",
            "lower",
            layer_ms(untraced, 2),
        ),
        metric("plangen.plans", "count", "lower", plans),
        metric(
            "plangen.pairs_emitted",
            "count",
            "lower",
            sum(&counters, |c| c.pairs_emitted),
        ),
        metric(
            "plangen.unions",
            "count",
            "lower",
            sum(&counters, |c| c.unions),
        ),
        metric(
            "plangen.oracle_probes",
            "count",
            "lower",
            sum(&counters, |c| c.oracle_probes),
        ),
        metric(
            "plangen.dominance_memo_hits",
            "count",
            "higher",
            sum(&counters, |c| c.dominance_memo_hits),
        ),
        metric("plangen.bound_pruned", "count", "higher", bound_pruned),
        metric("plangen.pruned_dominated", "count", "lower", dominated),
        metric(
            "plangen.kept_ratio",
            "ratio",
            "higher",
            plans / (plans + bound_pruned + dominated).max(1.0),
        ),
        metric(
            "plangen.fallbacks",
            "count",
            "lower",
            sum(&counters, |c| u64::from(c.fallback)),
        ),
        metric(
            "plangen.memory_bytes",
            "bytes",
            "lower",
            counters.iter().map(|c| c.memory_bytes).max().unwrap_or(0) as f64,
        ),
    ];
    for (k, phase) in PHASES.iter().enumerate() {
        out.push(metric(
            format!("plangen.phase_ms.{phase}"),
            "ms",
            "lower",
            mean_ms(traced, |s| s.phases[k]),
        ));
    }
    out.push(metric(
        "plangen.root_qerror_p50",
        "ratio",
        "lower",
        percentile(&qerrors, 0.5),
    ));
    out.push(metric(
        "plangen.root_qerror_max",
        "ratio",
        "lower",
        percentile(&qerrors, 1.0),
    ));
    for op in OPS {
        out.push(metric(
            format!("plangen.winner_ops.{op}"),
            "count",
            "lower",
            sum(&counters, |c| c.winner_ops.get(op).copied().unwrap_or(0)),
        ));
    }
    out.extend([
        metric("exec.exec_ms", "ms", "lower", layer_ms(traced, 3)),
        metric(
            "exec.exec_ms_untraced",
            "ms",
            "lower",
            layer_ms(untraced, 3),
        ),
        metric(
            "exec.rows_processed",
            "rows",
            "lower",
            sum(&counters, rows_processed),
        ),
        metric(
            "exec.max_rows_per_query",
            "rows",
            "lower",
            counters
                .iter()
                .map(|c| rows_processed(c))
                .max()
                .unwrap_or(0) as f64,
        ),
        metric(
            "exec.rows_per_s",
            "rows/s",
            "higher",
            rows_all as f64 / exec_time.as_secs_f64().max(1e-9),
        ),
        metric(
            "exec.morsels",
            "count",
            "lower",
            sum(&counters, |c| c.exec.morsels),
        ),
    ]);
    for op in OPS {
        out.push(metric(
            format!("exec.op_rows.{op}"),
            "rows",
            "lower",
            sum(&counters, |c| c.exec.ops.get(op).map_or(0, |s| s.rows)),
        ));
    }
    out.extend([
        metric(
            "exec.nonempty_ratio",
            "ratio",
            "higher",
            traced.samples.iter().filter(|s| s.nonempty).count() as f64 / n,
        ),
        metric("bench.untimed_ms", "ms", "lower", untimed_ms(traced)),
        metric(
            "bench.untimed_ms_untraced",
            "ms",
            "lower",
            untimed_ms(untraced),
        ),
        metric("bench.query_ms_mean", "ms", "lower", query_ms(traced)),
        metric(
            "bench.query_ms_mean_untraced",
            "ms",
            "lower",
            query_ms(untraced),
        ),
        metric(
            "bench.trace_overhead_pct",
            "%",
            "lower",
            (query_ms(traced) / query_ms(untraced) - 1.0) * 100.0,
        ),
        metric(
            "bench.spans",
            "count",
            "lower",
            traced.trace.records().len() as f64,
        ),
        metric("bench.queries", "count", "higher", n),
        metric(
            "bench.distinct_queries",
            "count",
            "higher",
            traced.counters.len() as f64,
        ),
        metric(
            "error_rate",
            "ratio",
            "lower",
            failed as f64 / attempted as f64,
        ),
    ]);
    out
}

/// The benchmark's result line: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                FAILED_MS
            };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
