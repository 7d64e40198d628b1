//! Shard-scaling study (beyond the paper's figures): query throughput of
//! a `ShardedIndex`, and of the `Session` and `ShardPool` over it, vs
//! shard count.
//!
//! PR 2's sealed CSR arenas made every HINT^m variant immutable and
//! trivially shardable by domain range; this experiment quantifies the
//! serving-side payoff. The domain is split into K ∈ {1, 2, 4, 8}
//! contiguous shards (boundary-crossing intervals replicated with
//! dedup-on-emit). A batch is routed once; the index drains it shard by
//! shard on the calling thread, while the pool's fan-out lends each
//! shard to one persistent helper thread and merges the per-shard forks
//! back in shard order.
//!
//! Five execution modes per (dataset, extent, K):
//!
//! * **solo** — sequential `query_sink`, shards visited in order: the
//!   routing overhead floor (no parallelism; should stay flat with K);
//! * **batch** — the index's trait-level `query_batch`, draining each
//!   shard's sub-batch into per-query `Vec`s on the calling thread;
//! * **merge** — `Session::query_batch_inline` with zero-copy
//!   `HandleSink`s: comparison-free runs reach the sinks as arena-slice
//!   handles and nothing is materialized — the route and the shape the
//!   wire server drives (its `WireSink` encodes frames straight from the
//!   arena slices). An untimed in-run differential pins every query's
//!   materialized handle stream to the index's solo id sequence;
//! * **count** — the index's `query_batch_merge` with `CountSink`s: the
//!   pure cost of the sharded level walks, no result copying at all;
//! * **pool** — the pool's fan-out `query_batch_merge` with collecting
//!   `Vec` forks: every sub-batch takes a channel round-trip to its
//!   shard's helper thread.
//!
//! A separate table measures **batched ingest**: a burst of time-ordered
//! appends (landing at the top of the domain, as streaming interval data
//! does) followed by a reseal that folds the overlay back into the
//! arenas. Writes route to the single owning shard and resealing a clean
//! shard is free, so the reseal — the dominant cost — touches `n/K`
//! entries instead of `n`: ingest throughput scales near-linearly with
//! the shard count, on any hardware, with no thread parallelism
//! involved. This is sharding's headline single-core win; on multi-core
//! hardware the fanned-out columns additionally scale through the helpers,
//! and per-shard hierarchies are `log2 K` levels shallower at the same
//! bottom-partition width (`m_shard = m - log2 K`) so walk-bound query
//! batches lean out as K grows.
//!
//! The synthetic workload is the adversarial control: centre-heavy
//! normal positions put half the intervals across one shard boundary,
//! so replication (and replica filtering on emit) prices the worst case.
//!
//! Besides the printed table, the run writes a machine-readable baseline
//! to `BENCH_shardscale.json` so the scaling trajectory is tracked
//! across commits.

use crate::datasets::{self, Dataset};
use crate::experiments::{model_m, rule, uniform_queries, DEFAULT_EXTENT};
use crate::measure::{
    assert_handle_merge_matches_solo, batch_throughput, mb, merge_count_throughput,
    merge_handle_throughput, pool_batch_throughput, query_throughput, time,
};
use crate::RunConfig;
use hint_core::{Domain, HintMSubs, IntervalIndex, Session, ShardedIndex, SubsConfig};
use std::fmt::Write as _;
use workloads::realistic::RealDataset;
use workloads::synthetic::SyntheticConfig;

/// Shard counts swept by the experiment.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Query-extent fractions: stabbing queries (pure level-walk cost, where
/// the shards' shallower hierarchies pay directly), the paper's 0.1%
/// default, and a result-copy-heavy 1%.
const EXTENTS: [f64; 3] = [0.0, DEFAULT_EXTENT, 0.01];

/// Batch size for the batched columns (matches `cachelayout`).
const BATCH: usize = 64;

/// Repetitions per measurement; the best run is reported (standard
/// anti-noise discipline for shared/virtualized CPUs, where a single
/// run can be off by ±30% from scheduler steal and frequency shifts).
const REPEATS: usize = 3;

/// Best-of-[`REPEATS`] wrapper around a throughput measurement.
fn best_of(mut f: impl FnMut() -> crate::measure::Throughput) -> crate::measure::Throughput {
    let mut best = f();
    for _ in 1..REPEATS {
        let t = f();
        assert_eq!(t.results, best.results, "nondeterministic measurement");
        if t.qps > best.qps {
            best = t;
        }
    }
    best
}

/// The two workloads: a TAXIS-style clone (short intervals — the
/// sharding-friendly shape) and the Table-5 synthetic generator
/// (Zipfian lengths, normal positions — a harder, centre-heavy shape).
fn workloads(cfg: &RunConfig) -> Vec<Dataset> {
    // ×4 on top of the run scale: sized so the per-shard sealed arenas
    // cross under a typical L2 (~2 MB) within the K sweep — the
    // cache-blocking regime domain sharding serves (see module docs)
    let taxis = datasets::real(
        RealDataset::Taxis,
        &RunConfig {
            scale_mul: cfg.scale_mul * 4,
            ..*cfg
        },
    );
    let syn_cfg = SyntheticConfig {
        cardinality: (1_000_000 / cfg.scale_mul as usize).max(1_000),
        ..SyntheticConfig::default()
    };
    let synth = Dataset {
        name: "SYNTH",
        data: syn_cfg.generate(),
        domain: syn_cfg.domain,
        scale: cfg.scale_mul,
    };
    vec![taxis, synth]
}

/// Runs the experiment and writes `BENCH_shardscale.json`.
pub fn run(cfg: &RunConfig) {
    println!("== Shard scaling: batched reads over sealed HINT^m (K = 1/2/4/8) ==");
    let mut rows = String::new();
    let mut builds = String::new();
    let mut ingests = String::new();
    // CI smoke gate (HINT_READPATH_GATE=1): the merged read path (the
    // session's handle batches, the route the server drives) must hold
    // at least 80% of solo throughput at K=4 on every row, or the run
    // exits nonzero — the regression tripwire for the batch planner /
    // tiled walk / zero-copy merge path. The margin is real
    // on both workloads: short-interval TAXIS rides the planner and
    // tiled walk, and SYNTH's centre-heavy Zipfian shape (thousands of
    // ids per query) rides the handle path that keeps those ids from
    // ever being materialized on the merge side.
    let gate = std::env::var("HINT_READPATH_GATE").is_ok_and(|v| v == "1");
    let mut gate_failures: Vec<String> = Vec::new();
    for ds in workloads(cfg) {
        let m = model_m(&ds, DEFAULT_EXTENT, cfg.max_m);
        println!(
            "\n[{} | n={} m={} domain={}]",
            ds.name,
            ds.data.len(),
            m,
            ds.domain
        );
        println!(
            "{:>8} {:>3} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>9} {:>10}",
            "extent",
            "K",
            "replicas",
            "solo q/s",
            "batch q/s",
            "merge q/s",
            "count q/s",
            "pool q/s",
            "scale",
            "mrg/solo",
            "results"
        );
        rule(119);
        // build (and seal) one sharded index per K up front; each shard
        // keeps the unsharded index's bottom-partition width by dropping
        // log2(K) levels (same resolution, shallower walks — the whole
        // point of giving every shard 1/K of the domain)
        let mut indexes: Vec<(usize, ShardedIndex<HintMSubs>, Session<HintMSubs>)> = Vec::new();
        for &k in &SHARDS {
            let shard_m = m.saturating_sub(k.trailing_zeros()).max(1);
            let (t_build, sharded) = time(|| {
                let mut idx = ShardedIndex::build_with_domain(
                    &ds.data,
                    0,
                    ds.domain - 1,
                    k,
                    |slice, lo, hi| {
                        HintMSubs::build_with_domain(
                            slice,
                            Domain::new(lo, hi, shard_m),
                            SubsConfig::full(),
                        )
                    },
                );
                idx.seal();
                idx
            });
            if !builds.is_empty() {
                builds.push(',');
            }
            write!(
                builds,
                "\n    {{\"dataset\": \"{}\", \"shards\": {}, \"n\": {}, \"m\": {}, \
                 \"build_s\": {:.6}, \"replicas\": {}, \"bytes\": {}}}",
                ds.name,
                k,
                ds.data.len(),
                m,
                t_build,
                sharded.replicated(),
                sharded.size_bytes(),
            )
            .unwrap();
            println!(
                "  built K={k}: {:.3}s, {} replicas, {:.2} MB",
                t_build,
                sharded.replicated(),
                mb(sharded.size_bytes()),
            );
            let session = Session::new(sharded.clone());
            indexes.push((k, sharded, session));
        }
        // batched ingest: a burst of time-ordered appends (top 1/8 of the
        // domain — they land in the last shard for every K in the sweep)
        // followed by a reseal; the reseal only rebuilds the dirty shard
        let burst: Vec<hint_core::Interval> = {
            let width = (ds.domain / 8).max(2);
            let lo = ds.domain - width;
            let n = (ds.data.len() as u64 / 64).max(1_024);
            (0..n)
                .map(|i| {
                    let st = lo + (i.wrapping_mul(7_919)) % (width - 1);
                    hint_core::Interval::new(
                        1_000_000_000 + i,
                        st,
                        (st + i % 64).min(ds.domain - 1),
                    )
                })
                .collect()
        };
        println!(
            "{:>3} {:>14} {:>10}",
            "K", "ingest op/s", "(burst of time-ordered appends + reseal)"
        );
        let mut ingest_rows: Vec<(usize, f64)> = Vec::new();
        for (k, sharded, _) in &indexes {
            let ingest = best_of(|| {
                let mut idx = sharded.clone();
                let t0 = std::time::Instant::now();
                for &s in &burst {
                    idx.insert(s);
                }
                idx.seal();
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                crate::measure::Throughput {
                    qps: burst.len() as f64 / secs,
                    results: idx.len() as u64,
                }
            });
            println!("{:>3} {:>14.0}", k, ingest.qps);
            ingest_rows.push((*k, ingest.qps));
            if !ingests.is_empty() {
                ingests.push(',');
            }
            write!(
                ingests,
                "\n    {{\"dataset\": \"{}\", \"shards\": {}, \"burst\": {}, \
                 \"ingest_ops\": {:.1}, \"scale_vs_k1\": {:.3}}}",
                ds.name,
                k,
                burst.len(),
                ingest.qps,
                ingest.qps / ingest_rows[0].1.max(1e-9),
            )
            .unwrap();
        }
        for extent in EXTENTS {
            let queries = uniform_queries(&ds, extent, cfg);
            let mut base_batch_qps = 0.0f64;
            for (k, sharded, session) in &indexes {
                let solo = best_of(|| query_throughput(sharded, queries.queries()));
                let batch = best_of(|| batch_throughput(sharded, queries.queries(), BATCH));
                let merge = best_of(|| merge_handle_throughput(session, queries.queries(), BATCH));
                let count = best_of(|| merge_count_throughput(sharded, queries.queries(), BATCH));
                let pooled =
                    best_of(|| pool_batch_throughput(session.pool(), queries.queries(), BATCH));
                assert_eq!(
                    solo.results, batch.results,
                    "{} K={k}: batch diverged",
                    ds.name
                );
                assert_eq!(
                    solo.results, merge.results,
                    "{} K={k}: merge diverged",
                    ds.name
                );
                // untimed: the handle streams must materialize to the
                // exact per-query id sequences the solo path produces
                assert_handle_merge_matches_solo(session, sharded, queries.queries(), BATCH);
                assert_eq!(
                    solo.results, count.results,
                    "{} K={k}: count diverged",
                    ds.name
                );
                assert_eq!(
                    solo.results, pooled.results,
                    "{} K={k}: pool fan-out diverged",
                    ds.name
                );
                if *k == 1 {
                    base_batch_qps = batch.qps;
                }
                let scale = batch.qps / base_batch_qps.max(1e-9);
                let merge_vs_solo = merge.qps / solo.qps.max(1e-9);
                if gate && *k == 4 && merge_vs_solo < 0.8 {
                    gate_failures.push(format!(
                        "{} extent={:.2}% K=4: merge/solo = {:.3} (< 0.8)",
                        ds.name,
                        extent * 100.0,
                        merge_vs_solo
                    ));
                }
                println!(
                    "{:>7.2}% {:>3} {:>10} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>7.2}x {:>8.2}x {:>10}",
                    extent * 100.0,
                    k,
                    sharded.replicated(),
                    solo.qps,
                    batch.qps,
                    merge.qps,
                    count.qps,
                    pooled.qps,
                    scale,
                    merge_vs_solo,
                    solo.results,
                );
                if !rows.is_empty() {
                    rows.push(',');
                }
                write!(
                    rows,
                    "\n    {{\"dataset\": \"{}\", \"extent\": {}, \"shards\": {}, \
                     \"solo_qps\": {:.1}, \"batch_qps\": {:.1}, \"merge_qps\": {:.1}, \
                     \"count_qps\": {:.1}, \"pool_qps\": {:.1}, \
                     \"scale_vs_k1\": {:.3}, \"merge_vs_solo\": {:.3}, \
                     \"results\": {}}}",
                    ds.name,
                    extent,
                    k,
                    solo.qps,
                    batch.qps,
                    merge.qps,
                    count.qps,
                    pooled.qps,
                    scale,
                    merge_vs_solo,
                    solo.results,
                )
                .unwrap();
            }
        }
    }
    if gate {
        if gate_failures.is_empty() {
            println!("read-path gate: OK (merge/solo >= 0.8 at K=4 on every row)");
        } else {
            eprintln!("read-path gate FAILED:");
            for f in &gate_failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"shardscale\",\n  \"workload\": \"enumerate + count, solo vs \
         batched, sharded index, session and pool fan-out\",\n  \"config\": {{\"scale_mul\": {}, \"queries\": {}, \
         \"max_m\": {}, \"seed\": {}, \"batch\": {}, \"repeats\": {}}},\n  \
         \"builds\": [{}\n  ],\n  \"ingest\": [{}\n  ],\n  \"rows\": [{}\n  ]\n}}\n",
        cfg.scale_mul, cfg.queries, cfg.max_m, cfg.seed, BATCH, REPEATS, builds, ingests, rows
    );
    match std::fs::write("BENCH_shardscale.json", &json) {
        Ok(()) => println!("\nwrote BENCH_shardscale.json"),
        Err(e) => eprintln!("\ncould not write BENCH_shardscale.json: {e}"),
    }
}
