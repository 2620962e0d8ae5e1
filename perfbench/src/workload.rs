//! The three workloads: fixed query sets (the "templates"), a data rule
//! per workload, and the seeded database instances with their reference
//! answers.
//!
//! A workload's query set does not depend on the seed, like the query
//! templates of a TPC benchmark: runs on different seeds measure the same
//! queries. The seed generates the database instance of every query (and
//! so the statistics the planner sees) and the order of the query stream.

use crate::data::{instance, mix, DataRule, Rng};
use ofw_catalog::Catalog;
use ofw_exec::{execute_serial, reference_plan, result_signature};
use ofw_query::Query;
use ofw_workload::{
    grouping_query, groupjoin_showcase_query, large_query, partialsort_showcase_query,
    q13_style_query, random_query, star_agg_query, star_agg_query_ordered, GroupingQueryConfig,
    LargeQueryConfig, RandomQueryConfig, StarAggConfig, Topology,
};

/// Generator seeds of short-queries star aggregations whose preparation
/// blows up (an NFSM of thousands of nodes on keyed dimensions; see
/// `README.md`, "Findings"): every star aggregation of seeds 5000–6100
/// whose cold preparation took over 0.1 s, but 6043, which lies past the
/// workload's last seed. They are kept out of the query stream: one
/// prepare of the largest outlasts a run, and the smaller ones took about
/// two thirds of each pass, so they would have decided every short-queries
/// metric. [`blowup_cases`] measures two of them apart instead.
const KEYED_STAR_BLOWUPS: [u64; 5] = [5_023, 5_428, 5_452, 5_467, 5_656];

/// The blow-ups that [`blowup_cases`] builds: they prepare within a few
/// seconds each.
const PROBED_BLOWUPS: [u64; 2] = [5_428, 5_452];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct 8–12-relation join graphs plus chain/cycle/star/clique
    /// topologies on tiny data: plan generation dominates.
    JoinEnum,
    /// Star aggregations, grouping joins and Q13-style queries on fact
    /// tables of 1.5·10⁴–1.5·10⁵ rows: execution dominates.
    OlapExec,
    /// A thousand 2–5-relation queries on a few hundred rows each:
    /// per-query fixed costs and the preparation cache dominate.
    ShortQueries,
}

/// How much of a workload to build: the benchmark runs `Full`; the
/// benchmark's own tests run `Short` (fewer queries, less data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workload.
    Full,
    /// A shortened form for tests.
    Short,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::JoinEnum,
        Workload::OlapExec,
        Workload::ShortQueries,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinEnum => "join-enum",
            Workload::OlapExec => "olap-exec",
            Workload::ShortQueries => "short-queries",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The data rule of the workload.
    pub fn rule(self, size: Size) -> DataRule {
        match (self, size) {
            (Workload::JoinEnum, _) => DataRule {
                scale: 5e-3,
                min_rows: 50,
                max_rows: 500,
                witnesses: 4,
            },
            (Workload::OlapExec, Size::Full) => DataRule {
                scale: 0.15,
                min_rows: 1_000,
                max_rows: 150_000,
                witnesses: 16,
            },
            (Workload::OlapExec, Size::Short) => DataRule {
                scale: 0.005,
                min_rows: 200,
                max_rows: 5_000,
                witnesses: 8,
            },
            (Workload::ShortQueries, _) => DataRule {
                scale: 1e-3,
                min_rows: 100,
                max_rows: 400,
                witnesses: 4,
            },
        }
    }

    /// The workload's fixed query set, as (name, catalog, query).
    pub fn queries(self, size: Size) -> Vec<(String, Catalog, Query)> {
        let mut out = Vec::new();
        let short = size == Size::Short;
        match self {
            Workload::JoinEnum => {
                let graphs = if short { 6 } else { 90 };
                for i in 0..graphs {
                    let n = 8 + i % 5;
                    let extra = (i / 5) % 4;
                    let seed = 1_000 + i as u64;
                    let (catalog, query) = if i % 3 == 0 {
                        grouping_query(&GroupingQueryConfig {
                            num_relations: n,
                            extra_edges: extra,
                            seed,
                        })
                    } else {
                        random_query(&RandomQueryConfig {
                            num_relations: n,
                            extra_edges: extra,
                            seed,
                        })
                    };
                    let kind = if i % 3 == 0 { "grouping" } else { "random" };
                    out.push((format!("{kind}-{n}-{extra}-s{seed}"), catalog, query));
                }
                // Kept on purpose: with statistics derived from data this
                // input has made the cost-bounded DP panic ("no complete
                // plan"); it stays in the set whether or not it fails.
                let (catalog, query) = grouping_query(&GroupingQueryConfig {
                    num_relations: 10,
                    extra_edges: 2,
                    seed: 1002,
                });
                out.push(("grouping-10-2-s1002".to_string(), catalog, query));
                let topologies: &[(Topology, usize)] = if short {
                    &[
                        (Topology::Chain, 10),
                        (Topology::Cycle, 8),
                        (Topology::Star, 6),
                        (Topology::Clique, 5),
                    ]
                } else {
                    &[
                        (Topology::Chain, 12),
                        (Topology::Chain, 14),
                        (Topology::Chain, 16),
                        (Topology::Cycle, 10),
                        (Topology::Cycle, 12),
                        (Topology::Cycle, 14),
                        (Topology::Star, 8),
                        (Topology::Star, 9),
                        (Topology::Star, 10),
                        (Topology::Clique, 6),
                        (Topology::Clique, 7),
                        (Topology::Clique, 8),
                    ]
                };
                for (k, &(topology, n)) in topologies.iter().enumerate() {
                    let seed = 2_000 + k as u64;
                    let (catalog, query) = large_query(&LargeQueryConfig {
                        topology,
                        num_relations: n,
                        seed,
                    });
                    out.push((format!("{}-{n}-s{seed}", topology.name()), catalog, query));
                }
            }
            Workload::OlapExec => {
                let (stars, groupings) = if short { (1, 1) } else { (16, 6) };
                for k in 0..stars {
                    let dimensions = 2 + k % 3;
                    let ordered = k % 4 == 3;
                    let config = StarAggConfig {
                        dimensions,
                        seed: 3_000 + k as u64,
                    };
                    let (catalog, query) = if ordered {
                        star_agg_query_ordered(&config)
                    } else {
                        star_agg_query(&config)
                    };
                    let tag = if ordered { "-ordered" } else { "" };
                    out.push((
                        format!("star-agg-{dimensions}{tag}-s{}", config.seed),
                        catalog,
                        query,
                    ));
                }
                for k in 0..groupings {
                    let n = 3 + k % 2;
                    let seed = 3_100 + k as u64;
                    let (catalog, query) = grouping_query(&GroupingQueryConfig {
                        num_relations: n,
                        extra_edges: 0,
                        seed,
                    });
                    out.push((format!("grouping-{n}-s{seed}"), catalog, query));
                }
                let (catalog, query) = q13_style_query();
                out.push(("q13-style".to_string(), catalog, query));
                if !short {
                    let (catalog, query) = groupjoin_showcase_query();
                    out.push(("orders-per-customer".to_string(), catalog, query));
                    let (catalog, query) = partialsort_showcase_query();
                    out.push(("orders-per-customer-sorted".to_string(), catalog, query));
                }
            }
            Workload::ShortQueries => {
                let count = if short { 30 } else { 1_000 };
                let mut seed = 5_000;
                while out.len() < count {
                    if !KEYED_STAR_BLOWUPS.contains(&seed) {
                        out.push(short_query(seed));
                    }
                    seed += 1;
                }
            }
        }
        out
    }
}

/// The short-queries query of generator seed `seed` (from 5000 on): a
/// third each grouping, random and star aggregation, with 2–5 relations.
fn short_query(seed: u64) -> (String, Catalog, Query) {
    let i = seed - 5_000;
    let n = 2 + (i as usize / 3) % 4;
    let extra = (i as usize / 12) % 2;
    let (name, (catalog, query)) = match i % 3 {
        0 => (
            format!("grouping-{n}-{extra}-s{seed}"),
            grouping_query(&GroupingQueryConfig {
                num_relations: n,
                extra_edges: extra,
                seed,
            }),
        ),
        1 => (
            format!("random-{n}-{extra}-s{seed}"),
            random_query(&RandomQueryConfig {
                num_relations: n,
                extra_edges: extra,
                seed,
            }),
        ),
        _ => (
            format!("star-agg-{}-s{seed}", n - 1),
            star_agg_query(&StarAggConfig {
                dimensions: n - 1,
                seed,
            }),
        ),
    };
    (name, catalog, query)
}

/// One query of a workload with its database instance and reference
/// answer.
pub struct Case {
    /// Query name (generator, size and generator seed).
    pub name: String,
    /// Catalog with statistics measured on `columns`.
    pub catalog: Catalog,
    /// The query, selectivities measured on `columns`.
    pub query: Query,
    /// Base columns, `columns[qrel][attr][row]`.
    pub columns: Vec<Vec<Vec<i64>>>,
    /// Result signature of the canonical reference plan, executed
    /// serially on the same engine.
    pub reference: Vec<Vec<i64>>,
}

/// Builds every case of `workload` for `seed`: data, derived statistics
/// and reference answers. Fails if a reference plan cannot run.
pub fn build_cases(workload: Workload, size: Size, seed: u64) -> Result<Vec<Case>, String> {
    build(workload.queries(size), &workload.rule(size), seed)
}

/// The short-queries star aggregations of [`PROBED_BLOWUPS`], built
/// under the short-queries data rule like the rest of that workload.
pub fn blowup_cases(seed: u64) -> Result<Vec<Case>, String> {
    let queries = PROBED_BLOWUPS.iter().map(|&s| short_query(s)).collect();
    build(queries, &Workload::ShortQueries.rule(Size::Full), seed)
}

fn build(
    queries: Vec<(String, Catalog, Query)>,
    rule: &DataRule,
    seed: u64,
) -> Result<Vec<Case>, String> {
    queries
        .into_iter()
        .enumerate()
        .map(|(i, (name, catalog, query))| {
            let inst = instance(&catalog, &query, rule, mix(seed, i as u64));
            let (arena, root) = reference_plan(&inst.query);
            let (out, _) = execute_serial(&arena, root, &inst.catalog, &inst.query, &inst.columns)
                .map_err(|e| format!("{name}: reference plan failed: {e}"))?;
            Ok(Case {
                reference: result_signature(&inst.query, &out),
                name,
                catalog: inst.catalog,
                query: inst.query,
                columns: inst.columns,
            })
        })
        .collect()
}

/// The seeded order in which one pass of the closed loop visits the
/// cases.
pub fn stream_order(cases: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cases).collect();
    Rng::new(mix(seed, 0x5EED)).shuffle(&mut order);
    order
}
