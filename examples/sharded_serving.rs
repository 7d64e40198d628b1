//! Sharded serving: a `ShardedIndex` front-end over sealed HINT^m
//! shards, answering query batches shard by shard (each batch routed
//! once, each shard's sub-batch one shared level walk) while writes keep
//! routing to their owning shards. A `ShardPool` (see the
//! `serve_client` example, which serves through one) runs the same
//! walks, and can also fan a batch out to persistent per-shard helper
//! threads.
//!
//! ```text
//! cargo run --example sharded_serving --release
//! ```

use hint_suite::hint_core::{
    CountSink, Domain, FirstK, HintMSubs, Interval, IntervalIndex, RangeQuery, ShardedIndex,
    SubsConfig,
};
use hint_suite::workloads::realistic::{RealDataset, RealisticConfig};
use std::time::Instant;

fn main() {
    let cfg = RealisticConfig::new(RealDataset::Taxis).with_scale(16);
    let data = cfg.generate();
    let domain = cfg.domain();
    println!("dataset: {} intervals, domain {domain}", data.len());

    // split the domain into 4 contiguous shards, one sealed HINT^m each
    let shards = 4;
    let t0 = Instant::now();
    let mut index =
        ShardedIndex::build_with_domain(&data, 0, domain - 1, shards, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 12), SubsConfig::full())
        });
    index.seal();
    println!(
        "built + sealed {} shards in {:.3}s ({} boundary-crossing replicas)",
        index.shard_count(),
        t0.elapsed().as_secs_f64(),
        index.replicated(),
    );
    for (i, ((lo, hi), n)) in index
        .shard_bounds()
        .into_iter()
        .zip(index.shard_lens())
        .enumerate()
    {
        println!("  shard {i}: [{lo:>8}, {hi:>8}]  {n} entries");
    }

    // a batch of mixed-extent queries, routed once and answered shard by
    // shard
    let queries: Vec<RangeQuery> = (0..256u64)
        .map(|i| {
            let st = (i * 7_919) % (domain - 1);
            RangeQuery::new(st, (st + 1 + (i % 40) * domain / 2_000).min(domain - 1))
        })
        .collect();

    // enumerate into one Vec sink per query
    let mut results: Vec<Vec<u64>> = queries.iter().map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    index.query_batch_merge(&queries, &mut results);
    let total: usize = results.iter().map(Vec::len).sum();
    println!(
        "\nbatch of {} queries -> {} results in {:.2}ms",
        queries.len(),
        total,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // counting needs no result memory at all
    let mut counts = vec![CountSink::new(); queries.len()];
    index.query_batch_merge(&queries, &mut counts);
    let counted: usize = counts.iter().map(CountSink::count).sum();
    assert_eq!(counted, total);
    println!("count-only batch agrees: {counted} results");

    // first-k answers saturate each shard-local scan early and never
    // over-emit across the shard boundary
    let k = 5;
    let mut tops: Vec<FirstK> = queries.iter().map(|_| FirstK::new(k)).collect();
    index.query_batch_merge(&queries, &mut tops);
    assert!(tops.iter().all(|s| s.len() <= k));
    println!("first-{k} batch: every sink capped at {k}");

    // writes route to owning shards; a reseal folds them into the arenas
    let fresh_id = data.len() as u64; // ids must stay unique across the index
    let burst: Vec<Interval> = (0..10_000u64)
        .map(|i| {
            let st = (i * 104_729) % (domain - 1);
            Interval::new(fresh_id + i, st, (st + i % 512).min(domain - 1))
        })
        .collect();
    let t0 = Instant::now();
    for &s in &burst {
        index.insert(s);
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    index.seal();
    println!(
        "ingested {} intervals in {:.3}s, resealed in {:.3}s; live = {}",
        burst.len(),
        insert_s,
        t0.elapsed().as_secs_f64(),
        index.len(),
    );
    let q = RangeQuery::new(0, domain - 1);
    let full = index.count(q);
    assert_eq!(
        full,
        index.len(),
        "full-domain count must see every interval"
    );
    println!("full-domain count after ingest: {full}");
}
