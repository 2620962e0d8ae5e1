//! End-to-end query benchmark for the order-optimization framework.
//!
//! One command drives a closed-loop stream of queries from a single
//! client through `extract → prepare_cached → PlanGen::run →
//! execute_plan`, checks every answer against a reference, and prints
//! every metric by name and unit. See `README.md` for the workloads,
//! the metrics and the data rule.

pub mod data;
pub mod report;
pub mod run;
pub mod workload;
