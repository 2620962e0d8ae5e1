//! The closed loop: one client sends the next query when the previous
//! one has been answered. Each query runs the pipeline
//! `extract → prepare_cached → PlanGen::run → execute_plan`, timed
//! around each call from this file, and is then checked against its
//! reference answer outside the timed region.

use crate::workload::Case;
use ofw_common::FxHasher;
use ofw_core::{OrderingFramework, PrepStats, PrepareOptions, PreparedCache, PruneConfig};
use ofw_exec::{execute_plan, result_signature, ExecOptions, ExecStats};
use ofw_obs::{Span, Trace};
use ofw_parallel::ThreadPool;
use ofw_plangen::{PlanArena, PlanGen, PlanGenStats, PlanId};
use ofw_query::extract::ExtractOptions;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Plan-generation phases reported per layer; `layer k` entries of
/// `PlanGenStats::phases` are summed into `dp`.
pub const PHASES: [&str; 6] = ["bound", "base", "enumerate", "dp", "finalize", "pick_final"];

/// Every physical operator, in `PlanOp::name` spelling.
pub const OPS: [&str; 11] = [
    "Scan",
    "IndexScan",
    "Sort",
    "PartialSort",
    "MergeJoin",
    "HashJoin",
    "NestedLoopJoin",
    "StreamAgg",
    "HashAgg",
    "GroupJoin",
    "HashGroup",
];

/// Layer names, in pipeline order; also the span names.
pub const LAYERS: [&str; 4] = ["extract", "prepare", "plan", "execute"];

/// Wall-clock of one timed query.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Index of the case.
    pub case: usize,
    /// Whole query, extract through execute.
    pub query: Duration,
    /// Busy time per layer, in [`LAYERS`] order.
    pub layers: [Duration; 4],
    /// Plan-generation phase times, in [`PHASES`] order.
    pub phases: [Duration; 6],
    /// Whether preparation was served from the cache.
    pub cache_hit: bool,
    /// Rows pushed through all operators.
    pub rows_processed: u64,
    /// Whether the result had rows.
    pub nonempty: bool,
    /// Why the query failed, if it did.
    pub failure: Option<Failure>,
}

/// How a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A layer panicked (caught per query).
    Panic(String),
    /// A layer returned an error.
    Error(String),
    /// The result differs from the reference answer.
    Mismatch,
    /// The result is empty where the reference answer is not.
    Empty,
}

impl Failure {
    /// Whether the query produced an answer that is wrong (as opposed
    /// to producing none).
    pub fn is_wrong_answer(&self) -> bool {
        matches!(self, Failure::Mismatch | Failure::Empty)
    }
}

/// Preparation counters of a cold (cache-missing) prepare.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColdPrep {
    /// NFSM nodes after pruning.
    pub nfsm_nodes: u64,
    /// DFSM states materialized at the end of preparation.
    pub dfsm_states: u64,
    /// Functional dependencies pruned.
    pub pruned_fds: u64,
    /// Bytes of precomputed transition and contains tables.
    pub precomputed_bytes: u64,
}

/// The deterministic counters of one query execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Interesting properties extracted.
    pub interesting_props: u64,
    /// Set when preparation missed the cache.
    pub cold_prep: Option<ColdPrep>,
    /// Subplans that entered the plan table.
    pub plans: u64,
    /// csg-cmp pairs handed to plan construction.
    pub pairs_emitted: u64,
    /// Connected subsets planned.
    pub unions: u64,
    /// Oracle probes (memo hits excluded).
    pub oracle_probes: u64,
    /// Pareto comparisons answered by the dominance memo.
    pub dominance_memo_hits: u64,
    /// Candidates rejected by the cost bound.
    pub bound_pruned: u64,
    /// Candidates rejected or evicted as dominated.
    pub pruned_dominated: u64,
    /// Whether the enumerator fell back to linearization.
    pub fallback: bool,
    /// Order-annotation memory of the plan table.
    pub memory_bytes: u64,
    /// Cardinality the planner estimated for the winner's root.
    pub root_card: f64,
    /// Operator counts of the winning plan.
    pub winner_ops: BTreeMap<&'static str, u64>,
    /// Execution counters of the winning plan.
    pub exec: ExecStats,
    /// Hash of the output table (schema and columns).
    pub output_hash: u64,
}

/// What one timed run produced.
#[derive(Default)]
pub struct RunResult {
    /// One sample per timed query, in stream order.
    pub samples: Vec<Sample>,
    /// Counters of each case's first successful timed execution.
    pub counters: Vec<Option<Counters>>,
    /// First failure message per failing case.
    pub failures: BTreeMap<usize, Failure>,
    /// The arm's span sink: recording in a traced arm, disabled
    /// otherwise.
    pub trace: Trace,
}

impl RunResult {
    /// Appends the samples of `later`, a run of the same arm over the
    /// same cases, keeping each case's first counters and failure.
    pub fn absorb(&mut self, later: RunResult) {
        self.samples.extend(later.samples);
        for (mine, theirs) in self.counters.iter_mut().zip(later.counters) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
        for (case, f) in later.failures {
            self.failures.entry(case).or_insert(f);
        }
    }
}

/// When a timed run stops: at the first pass boundary (a pass visits
/// every case once) where both floors are met. It runs at least one pass.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Wall-clock floor.
    pub seconds: f64,
    /// Timed-query floor, per arm.
    pub min_queries: usize,
}

/// A successful pipeline run, before verification.
struct Answer {
    out: ofw_exec::ColTable,
    counters: Counters,
    phases: [Duration; 6],
    cache_hit: bool,
}

fn winner_ops<S: Copy>(arena: &PlanArena<S>, root: PlanId, ops: &mut BTreeMap<&'static str, u64>) {
    let op = &arena.node(root).op;
    *ops.entry(op.name()).or_default() += 1;
    for child in op.inputs() {
        winner_ops(arena, child, ops);
    }
}

fn phase_times(stats: &PlanGenStats) -> [Duration; 6] {
    let mut out = [Duration::ZERO; 6];
    for p in &stats.phases {
        let name = if p.name.starts_with("layer ") {
            "dp"
        } else {
            p.name.as_str()
        };
        if let Some(k) = PHASES.iter().position(|&x| x == name) {
            out[k] += p.time;
        }
    }
    out
}

/// Runs `f` as layer `layer`: a child span of `parent` (recorded only
/// in a traced run) around the layer's busy time.
fn layer<T>(parent: &Span, layer: usize, layers: &mut [Duration; 4], f: impl FnOnce() -> T) -> T {
    let _span = parent.child(LAYERS[layer]);
    let t0 = Instant::now();
    let out = f();
    layers[layer] = t0.elapsed();
    out
}

/// Runs the pipeline on one case, recording each layer's busy time into
/// `layers` and a span per layer under `query`.
fn pipeline(
    case: &Case,
    cache: &PreparedCache,
    pool: &ThreadPool,
    layers: &mut [Duration; 4],
    query: &Span,
) -> Result<Answer, Failure> {
    let ex = layer(query, 0, layers, || {
        ofw_query::extract(&case.catalog, &case.query, &ExtractOptions::default())
    });
    let fw = layer(query, 1, layers, || {
        OrderingFramework::prepare_cached(
            &ex.spec,
            PruneConfig::default(),
            &PrepareOptions::default(),
            cache,
        )
    })
    .map_err(|e| Failure::Error(format!("prepare: {e:?}")))?;
    let plan = layer(query, 2, layers, || {
        PlanGen::new(&case.catalog, &case.query, &ex, &fw).run()
    });
    let (out, exec) = layer(query, 3, layers, || {
        execute_plan(
            &plan.arena,
            plan.best,
            &case.catalog,
            &case.query,
            &case.columns,
            pool,
            &ExecOptions::default(),
            &Trace::disabled(),
        )
    })
    .map_err(|e| Failure::Error(format!("execute: {e}")))?;

    let prep: &PrepStats = fw.stats();
    let stats = &plan.stats;
    let dc = &stats.decisions;
    let mut ops = BTreeMap::new();
    winner_ops(&plan.arena, plan.best, &mut ops);
    let counters = Counters {
        interesting_props: ex.spec.interesting().count() as u64,
        cold_prep: (!prep.interned_hit).then_some(ColdPrep {
            nfsm_nodes: prep.nfsm_nodes as u64,
            dfsm_states: prep.dfsm_states as u64,
            pruned_fds: prep.pruned_fds as u64,
            precomputed_bytes: prep.precomputed_bytes as u64,
        }),
        plans: stats.plans as u64,
        pairs_emitted: stats.pairs_emitted,
        unions: stats.unions,
        oracle_probes: dc.probes.total(),
        dominance_memo_hits: dc.probes.dominance_memo_hits,
        bound_pruned: dc.pruning.bound_pruned,
        pruned_dominated: dc.pruning.dominated_total(),
        fallback: stats.fallback,
        memory_bytes: stats.memory_bytes as u64,
        root_card: plan.arena.node(plan.best).card,
        winner_ops: ops,
        exec,
        output_hash: 0,
    };
    Ok(Answer {
        out,
        phases: phase_times(stats),
        cache_hit: prep.interned_hit,
        counters,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn output_hash(out: &ofw_exec::ColTable) -> u64 {
    let mut h = FxHasher::default();
    format!("{:?}", out.schema).hash(&mut h);
    out.cols.hash(&mut h);
    h.finish()
}

/// Runs one query: the timed pipeline (panics caught) under a `query`
/// span of `trace`, then the untimed check against the reference answer.
fn one_query(
    case_idx: usize,
    case: &Case,
    cache: &PreparedCache,
    pool: &ThreadPool,
    trace: &Trace,
) -> (Sample, Option<Counters>) {
    let mut layers = [Duration::ZERO; 4];
    let t0 = Instant::now();
    let result = {
        let span = trace.span("query");
        catch_unwind(AssertUnwindSafe(|| {
            pipeline(case, cache, pool, &mut layers, &span)
        }))
    };
    let query = t0.elapsed();
    let mut sample = Sample {
        case: case_idx,
        query,
        layers,
        ..Sample::default()
    };
    let answer = match result {
        Err(payload) => Err(Failure::Panic(panic_message(payload.as_ref()))),
        Ok(r) => r,
    };
    match answer {
        Err(f) => {
            sample.failure = Some(f);
            (sample, None)
        }
        Ok(mut a) => {
            sample.phases = a.phases;
            sample.cache_hit = a.cache_hit;
            sample.rows_processed = a.counters.exec.ops.values().map(|s| s.rows).sum();
            sample.nonempty = a.out.num_rows() > 0;
            if !sample.nonempty && !case.reference.is_empty() {
                sample.failure = Some(Failure::Empty);
            } else if case.reference.is_empty()
                || result_signature(&case.query, &a.out) != case.reference
            {
                // An empty reference is a vacuous check: it counts as a
                // failure too, so a data rule that empties a query shows.
                sample.failure = Some(Failure::Mismatch);
            }
            a.counters.output_hash = output_hash(&a.out);
            (sample, Some(a.counters))
        }
    }
}

/// The timed closed loop over `order` (one pass = one visit of every
/// case). Each entry of `traced` is an arm; arms take turns pass by
/// pass, the first arm alternating, so drift over the run affects them
/// alike. Every pass starts on an empty preparation cache of its own,
/// so all passes do the same work and no metric depends on how many
/// passes fit into the run.
pub fn timed_runs(
    cases: &[Case],
    order: &[usize],
    pool: &ThreadPool,
    limits: &Limits,
    traced: &[bool],
) -> Vec<RunResult> {
    let mut runs: Vec<RunResult> = traced
        .iter()
        .map(|&t| RunResult {
            counters: vec![None; cases.len()],
            trace: if t {
                Trace::recording()
            } else {
                Trace::disabled()
            },
            ..RunResult::default()
        })
        .collect();
    let start = Instant::now();
    for round in 1.. {
        for k in 0..runs.len() {
            let arm = (k + round) % runs.len();
            let run = &mut runs[arm];
            let cache = PreparedCache::new();
            for &i in order {
                let (sample, counters) = one_query(i, &cases[i], &cache, pool, &run.trace);
                if let Some(f) = &sample.failure {
                    run.failures.entry(i).or_insert_with(|| f.clone());
                }
                if run.counters[i].is_none() {
                    run.counters[i] = counters;
                }
                run.samples.push(sample);
            }
        }
        if runs.iter().all(|r| r.samples.len() >= limits.min_queries)
            && start.elapsed().as_secs_f64() >= limits.seconds
        {
            break;
        }
    }
    runs
}

/// One untimed pass over every case on a cache of its own: fills the
/// allocator, page tables and code caches before timing starts.
pub fn warm_up(cases: &[Case], pool: &ThreadPool) {
    let order: Vec<usize> = (0..cases.len()).collect();
    let limits = Limits {
        seconds: 0.0,
        min_queries: 0,
    };
    std::hint::black_box(timed_runs(cases, &order, pool, &limits, &[false]));
}

/// Prepares each case once, cold, on an empty cache of its own, outside
/// the closed loop: the summed preparation time and NFSM nodes.
pub fn cold_prepares(cases: &[Case]) -> Result<(Duration, u64), String> {
    let mut time = Duration::ZERO;
    let mut nfsm_nodes = 0;
    for case in cases {
        let ex = ofw_query::extract(&case.catalog, &case.query, &ExtractOptions::default());
        let cache = PreparedCache::new();
        let t0 = Instant::now();
        let fw = OrderingFramework::prepare_cached(
            &ex.spec,
            PruneConfig::default(),
            &PrepareOptions::default(),
            &cache,
        );
        time += t0.elapsed();
        let fw = fw.map_err(|e| format!("{}: prepare: {e:?}", case.name))?;
        nfsm_nodes += fw.stats().nfsm_nodes as u64;
    }
    Ok((time, nfsm_nodes))
}
