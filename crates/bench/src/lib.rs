//! # gbmqo-bench
//!
//! The experiment harness regenerating **every table and figure** of the
//! paper's evaluation (§6), plus ablations:
//!
//! | Target | Paper | Module |
//! |---|---|---|
//! | Example 1 / Table 2 | speedup over GROUPING SETS (SC + CONT) | [`experiments::table2`] |
//! | Table 3 | speedup over naive, 4 datasets × SC/TC | [`experiments::table3`] |
//! | Figure 9 | GB-MQO vs exhaustive optimal, Q0..Q9 | [`experiments::fig9`] |
//! | Figure 10 a/b/c | scaling with number of columns | [`experiments::fig10`] |
//! | §6.5 | binary-tree restriction | [`experiments::sec65`] |
//! | Figure 11 a/b | pruning techniques | [`experiments::fig11`] |
//! | Figure 12 | statistics-creation overhead | [`experiments::fig12`] |
//! | §3.2.2 / §6.7, served | statistics at a fresh session's first plan | [`experiments::first_contact`] |
//! | Figure 13 | speedup vs Zipf skew | [`experiments::fig13`] |
//! | Figure 14 | physical-design sweep | [`experiments::fig14`] |
//! | §4.4 ablation | BF/DF scheduling vs fixed traversals | [`experiments::storage_ablation`] |
//! | §7 extensions | CUBE/ROLLUP merge alternatives | [`experiments::extensions`] |
//!
//! Row counts are scaled down from the paper's 6M–78M (see `DESIGN.md`'s
//! substitution notes); set `GBMQO_ROWS` to raise the base scale. The
//! `experiments` binary prints every report; each module's release shape
//! test (`cargo test --release -p gbmqo-bench`) reruns it at
//! [`Scale::small`] and asserts its qualitative claim. The `calibrate`
//! binary measures the per-row and per-group aggregation costs behind the
//! cost model's default constants.
//! Server-level performance is measured by the separate `gbmqo_benchmark`
//! package.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{Report, Scale};
