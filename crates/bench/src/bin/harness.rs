//! Experiment harness: regenerates every table and figure of the HINT
//! paper's evaluation (§5) on the statistical dataset clones, plus a few
//! library-level studies. Served (wire-path) performance is measured by
//! `hintbench` (`crates/bench/src/bin/hintbench`, run as declared in
//! `BENCHMARK.json`), not here.
//!
//! ```text
//! cargo run -p bench --release --bin harness -- <experiment> [flags]
//!
//! experiments:
//!   fig10 fig11 fig12 fig13 fig14 table6 table7 table8 table9 table10
//!   ablation        extra: comparison counts vs m (Lemma 4 / Theorem 2)
//!   countmode       extra: enumerate vs count vs exists throughput
//!   cachelayout     extra: nested-Vec vs sealed-CSR storage + query_batch
//!   shardscale      extra: sharded index, session + pool fan-out throughput vs K
//!   snapshot        extra: durable snapshot save bandwidth + restore vs rebuild
//!   all             run everything (paper order)
//!
//! flags:
//!   --quick         small datasets + 1K queries (smoke test)
//!   --scale N       extra dataset down-scale divisor (default 1)
//!   --queries N     queries per throughput measurement (default 10000)
//!   --max-m N       largest m in the m-sweeps (default 17)
//!   --seed N        workload RNG seed (default 42)
//! ```

use bench::{experiments, RunConfig};
use std::env;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: harness <fig10|fig11|fig12|fig13|fig14|table6|table7|table8|table9|table10|ablation|countmode|cachelayout|shardscale|snapshot|all> \
         [--quick] [--scale N] [--queries N] [--max-m N] [--seed N]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut cfg = RunConfig::default();
    let mut experiment = String::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                let q = RunConfig::quick();
                cfg.scale_mul = cfg.scale_mul.max(q.scale_mul);
                cfg.queries = cfg.queries.min(q.queries);
                cfg.max_m = cfg.max_m.min(q.max_m);
            }
            "--scale" => {
                cfg.scale_mul = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--queries" => {
                cfg.queries = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-m" => {
                cfg.max_m = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            name if experiment.is_empty() && !name.starts_with('-') => {
                experiment = name.to_string();
            }
            _ => usage(),
        }
    }
    if experiment.is_empty() {
        usage();
    }
    println!(
        "(config: scale x{}, {} queries, max m {}, seed {})\n",
        cfg.scale_mul, cfg.queries, cfg.max_m, cfg.seed
    );
    let run_one = |name: &str| match name {
        "fig10" => experiments::fig10::run(&cfg),
        "fig11" => experiments::fig11::run(&cfg),
        "fig12" => experiments::fig12::run(&cfg),
        "fig13" => experiments::fig13::run(&cfg),
        "fig14" => experiments::fig14::run(&cfg),
        "table6" => experiments::table6::run(&cfg),
        "table7" => experiments::table7::run(&cfg),
        "table8" => experiments::table8::run(&cfg),
        "table9" => experiments::table9::run(&cfg),
        "table10" => experiments::table10::run(&cfg),
        "ablation" => experiments::ablation::run(&cfg),
        "countmode" => experiments::countmode::run(&cfg),
        "cachelayout" => experiments::cachelayout::run(&cfg),
        "shardscale" => experiments::shardscale::run(&cfg),
        "snapshot" => experiments::snapshot::run(&cfg),
        _ => usage(),
    };
    if experiment == "all" {
        for name in [
            "fig10",
            "fig11",
            "table6",
            "fig12",
            "table7",
            "table8",
            "table9",
            "fig13",
            "fig14",
            "table10",
            "ablation",
            "countmode",
            "cachelayout",
            "shardscale",
            "snapshot",
        ] {
            run_one(name);
            println!();
        }
    } else {
        run_one(&experiment);
    }
}
