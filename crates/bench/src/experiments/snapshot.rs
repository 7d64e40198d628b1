//! Snapshot durability study (beyond the paper's figures): what a
//! crash-safe snapshot costs to write and what restoring one saves
//! over rebuilding the index from raw intervals.
//!
//! For TAXIS clones at two scales the experiment times (a) the sealed
//! sharded build from raw data — the recovery path a process without
//! snapshots is stuck with, (b) `Session::snapshot` — columnar encode,
//! chunked write, fsync, atomic rename, and (c) repeated
//! `Session::restore` bulk-loads of the same file, reporting save
//! bandwidth, best and p99 restore latency, and the restore-vs-rebuild
//! speedup. Before anything is timed the restored twin is asserted
//! result-identical to the live session on a query window.
//!
//! Writes `BENCH_snapshot.json`.

use crate::datasets::{self, Dataset};
use crate::experiments::{model_m, rule, uniform_queries, DEFAULT_EXTENT};
use crate::measure::{mb, time};
use crate::RunConfig;
use hint_core::{
    Domain, HintMSubs, IntervalId, IntervalIndex, RangeQuery, Session, ShardedIndex, SubsConfig,
};
use std::fmt::Write as _;
use workloads::realistic::RealDataset;

/// Shards in the pooled index (matches the serving setup).
const SHARDS: usize = 4;

/// Restore repetitions per scale; best and p99 reported.
const RESTORES: usize = 20;

/// Queries in the restored-twin identity window.
const WINDOW: usize = 64;

fn build_sharded(ds: &Dataset, shard_m: u32) -> ShardedIndex<HintMSubs> {
    let mut idx =
        ShardedIndex::build_with_domain(&ds.data, 0, ds.domain - 1, SHARDS, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, shard_m), SubsConfig::full())
        });
    idx.seal();
    idx
}

/// Sorted result sets of one batched window through a session's pool —
/// the restored-twin identity witness.
fn window_results(window: &[RangeQuery], session: &Session<HintMSubs>) -> Vec<Vec<IntervalId>> {
    let mut bufs: Vec<Vec<IntervalId>> = window.iter().map(|_| Vec::new()).collect();
    session.query_batch_merge(window, &mut bufs);
    for v in &mut bufs {
        v.sort_unstable();
    }
    bufs
}

/// Runs the experiment and writes `BENCH_snapshot.json`.
pub fn run(cfg: &RunConfig) {
    println!("== Crash-safe snapshot: save bandwidth + restore vs rebuild (K = {SHARDS}) ==");
    let path =
        std::env::temp_dir().join(format!("hint-bench-snapshot-{}.snap", std::process::id()));
    println!(
        "\n{:>8} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10} {:>10}",
        "dataset", "n", "snap MB", "save s", "MB/s", "restore s", "p99 s", "vs build"
    );
    rule(82);
    let mut rows = String::new();
    for scale in [1u64, 4] {
        let ds = datasets::real(
            RealDataset::Taxis,
            &RunConfig {
                scale_mul: cfg.scale_mul * scale,
                ..*cfg
            },
        );
        let m = model_m(&ds, DEFAULT_EXTENT, cfg.max_m);
        let shard_m = m.saturating_sub(SHARDS.trailing_zeros()).max(1);
        // (a) rebuild-from-raw-data: the no-snapshot recovery baseline —
        // the full path back to a serving session (build + pool spawn),
        // the same endpoint `Session::restore` is timed to below
        let (build_s, mut session) = time(|| Session::new(build_sharded(&ds, shard_m)));
        // (b) the durable save: encode + chunked write + fsync + rename
        let (save_s, saved) = time(|| session.snapshot(&path).expect("snapshot save"));
        // (c) repeated restores of the same file
        let mut restores = Vec::with_capacity(RESTORES);
        let mut restored = None;
        for _ in 0..RESTORES {
            let (t, s) = time(|| Session::restore(&path).expect("snapshot restore"));
            restores.push(t);
            restored = Some(s);
        }
        let restored = restored.expect("RESTORES >= 1");
        // identity before arithmetic: live count + a sorted query window
        assert_eq!(restored.len(), session.len(), "restored live count drift");
        let queries = uniform_queries(&ds, DEFAULT_EXTENT, cfg);
        let window = &queries.queries()[..WINDOW.min(queries.queries().len())];
        assert_eq!(
            window_results(window, &session),
            window_results(window, &restored),
            "restored twin diverged from the live session"
        );
        restores.sort_by(f64::total_cmp);
        let best = restores[0];
        let p99 = restores[((RESTORES * 99).div_ceil(100)).clamp(1, RESTORES) - 1];
        let save_mb_s = mb(saved as usize) / save_s.max(1e-12);
        let speedup = build_s / best.max(1e-12);
        println!(
            "{:>8} {:>9} {:>9.2} {:>9.4} {:>9.0} {:>11.4} {:>10.4} {:>9.1}x",
            ds.name,
            ds.data.len(),
            mb(saved as usize),
            save_s,
            save_mb_s,
            best,
            p99,
            speedup,
        );
        if speedup < 1.0 {
            println!("  !! restoring the snapshot lost to rebuilding from raw data");
        }
        if !rows.is_empty() {
            rows.push(',');
        }
        write!(
            rows,
            "\n    {{\"dataset\": \"{}\", \"n\": {}, \"shards\": {}, \"snapshot_bytes\": {}, \
             \"save_s\": {:.6}, \"save_mb_s\": {:.1}, \"build_s\": {:.6}, \
             \"restore_best_s\": {:.6}, \"restore_p99_s\": {:.6}, \"restore_samples\": {}, \
             \"restore_vs_rebuild\": {:.3}}}",
            ds.name,
            ds.data.len(),
            SHARDS,
            saved,
            save_s,
            save_mb_s,
            build_s,
            best,
            p99,
            RESTORES,
            speedup,
        )
        .unwrap();
    }
    let _ = std::fs::remove_file(&path);
    let json = format!(
        "{{\n  \"experiment\": \"snapshot\",\n  \"workload\": \"durable save bandwidth and \
         restore latency vs rebuild-from-raw-data, TAXIS at two scales\",\n  \
         \"config\": {{\"scale_mul\": {}, \"queries\": {}, \"max_m\": {}, \"seed\": {}, \
         \"shards\": {}, \"restore_samples\": {}}},\n  \"scales\": [{}\n  ]\n}}\n",
        cfg.scale_mul, cfg.queries, cfg.max_m, cfg.seed, SHARDS, RESTORES, rows,
    );
    match std::fs::write("BENCH_snapshot.json", &json) {
        Ok(()) => println!("\nwrote BENCH_snapshot.json"),
        Err(e) => eprintln!("\ncould not write BENCH_snapshot.json: {e}"),
    }
}
