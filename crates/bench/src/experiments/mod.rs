//! One generator per table/figure of the paper's evaluation (§5).
//!
//! Every `run` function prints a paper-style table to stdout. The
//! `harness` binary maps subcommands onto these functions; EXPERIMENTS.md
//! records paper-vs-measured values.

pub mod ablation;
pub mod cachelayout;
pub mod countmode;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod shardscale;
pub mod snapshot;
pub mod table10;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;

use crate::datasets::Dataset;
use crate::RunConfig;
use hint_core::{Betas, ModelInput};
use workloads::queries::QueryWorkload;

/// Default query extent used throughout the paper: 0.1% of the domain.
pub const DEFAULT_EXTENT: f64 = 0.001;

/// Uniform query workload over a dataset at a given extent fraction.
pub fn uniform_queries(ds: &Dataset, extent_frac: f64, cfg: &RunConfig) -> QueryWorkload {
    let extent = (ds.domain as f64 * extent_frac) as u64;
    QueryWorkload::uniform(0, ds.domain - 1, extent, cfg.queries, cfg.seed)
}

/// Per-dataset competitor parameters, following the paper's Table 7
/// tuning (1D-grid partition counts, timeline checkpoint counts, period
/// index levels/partitions).
pub struct CompetitorParams {
    /// 1D-grid partition count.
    pub grid_p: usize,
    /// Timeline index: events between checkpoints.
    pub timeline_spacing: usize,
    /// Period index coarse partitions.
    pub period_p: usize,
    /// Period index duration levels.
    pub period_levels: usize,
}

/// Looks up competitor parameters by dataset name.
pub fn competitor_params(name: &str, n: usize) -> CompetitorParams {
    let (grid_p, period_levels) = match name {
        "BOOKS" => (500, 4),
        "WEBKIT" => (300, 4),
        "TAXIS" => (4000, 7),
        "GREEND" => (30000, 8),
        _ => (1000, 4),
    };
    // paper: 6000-8000 checkpoints; spacing = 2n / target count
    let timeline_spacing = (2 * n / 7000).max(16);
    CompetitorParams {
        grid_p,
        timeline_spacing,
        period_p: 100,
        period_levels,
    }
}

/// The `m` used for HINT^m on a dataset: the §3.3 model's `m_opt`,
/// clamped to a laptop-friendly sweep range.
pub fn model_m(ds: &Dataset, extent_frac: f64, max_m: u32) -> u32 {
    let lambda_q = ds.domain as f64 * extent_frac;
    let input = ModelInput::from_data(&ds.data, lambda_q);
    hint_core::m_opt(&input, &Betas::DEFAULT, 0.03).clamp(5, max_m)
}

/// Prints a horizontal rule sized for our tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Builds all six §5.3 indexes over a dataset, returning
/// `(name, build seconds, boxed index)` triples — shared by Tables 8, 9
/// and Figure 13.
pub fn build_all(
    ds: &Dataset,
    cfg: &RunConfig,
) -> Vec<(&'static str, f64, Box<dyn hint_core::IntervalIndex>)> {
    use crate::measure::time;
    let params = competitor_params(ds.name, ds.data.len());
    let m = model_m(ds, DEFAULT_EXTENT, cfg.max_m);
    let cf_bits = (64 - (ds.domain - 1).leading_zeros()).min(24);
    let mut out: Vec<(&'static str, f64, Box<dyn hint_core::IntervalIndex>)> = Vec::new();
    let (t, idx) = time(|| interval_tree::IntervalTree::build(&ds.data));
    out.push(("Interval tree", t, Box::new(idx)));
    let (t, idx) =
        time(|| period_index::PeriodIndex::build(&ds.data, params.period_p, params.period_levels));
    out.push(("Period", t, Box::new(idx)));
    let (t, idx) = time(|| {
        timeline_index::TimelineIndex::build_with_spacing(&ds.data, params.timeline_spacing)
    });
    out.push(("Timeline", t, Box::new(idx)));
    let (t, idx) = time(|| grid1d::Grid1D::build(&ds.data, params.grid_p));
    out.push(("1D-grid", t, Box::new(idx)));
    let (t, idx) =
        time(|| hint_core::HintCf::build(&ds.data, cf_bits, hint_core::CfLayout::Sparse));
    out.push(("HINT", t, Box::new(idx)));
    let (t, idx) = time(|| hint_core::Hint::build(&ds.data, m));
    out.push(("HINT^m", t, Box::new(idx)));
    out
}
