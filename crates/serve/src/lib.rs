//! # serve — batched query serving over a sharded HINT^m
//!
//! The network front-end for the workspace's interval store: a
//! length-prefixed binary [wire protocol](proto), a pluggable
//! [`Transport`] (in-memory duplex channels for deterministic tests,
//! `std::net` TCP loopback for real sockets — no async runtime), and a
//! [batch scheduler](server) that accumulates queries from independent
//! client connections into cross-connection batches, hands each batch
//! to [`Session::query_batch_inline`](hint_core::Session::query_batch_inline)
//! (which walks it on the scheduler thread, one level walk per shard in
//! shard order; see [`ShardPool`](hint_core::ShardPool)), and streams
//! each query's
//! results back to its connection through incremental [`WireSink`]
//! encoding — no full-result `Vec` per query, ever.
//!
//! The server hosts a **catalog** of named indexes: every connection
//! starts addressed at the default index (id 0), can create/drop/list
//! named indexes over the wire, pick a per-connection default with
//! `UseIndex`, or address any verb at an explicit index id. Each
//! catalog entry owns its own [`hint_core::Session`], so writes
//! (`Insert`/`Delete`/`Seal`) barrier only their own index — queries
//! queued against other indexes keep batching. Beyond range queries
//! the wire speaks Allen-relation queries, server-side streamed
//! interval joins between two indexes, and merged aggregation verbs
//! (top-k by duration, per-bucket histograms). Every connection
//! observes a serializable history and replies arrive strictly in
//! request order (no correlation ids on the wire). Malformed input
//! never panics the server: well-framed garbage earns an error trailer
//! on that connection, desynchronized streams are closed.
//!
//! ## Quick start (in-memory transport)
//!
//! ```
//! use hint_core::{Domain, HintMSubs, Interval, RangeQuery, Session, ShardedIndex, SubsConfig};
//! use serve::{duplex, Client, ServeConfig, Server};
//!
//! // 1. build the engine: a sharded, sealed HINT^m behind a Session
//! let data: Vec<Interval> = (0..1_000)
//!     .map(|i| Interval::new(i, i * 7 % 8_000, (i * 7 % 8_000) + 60))
//!     .collect();
//! let sharded = ShardedIndex::build_with_domain(&data, 0, 8_191, 4, |slice, lo, hi| {
//!     HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), SubsConfig::full())
//! });
//! let server = Server::start(Session::new(sharded), ServeConfig::default()).unwrap();
//!
//! // 2. connect a client over an in-memory duplex pipe
//! let (client_end, server_end) = duplex();
//! server.attach(server_end);
//! let mut client = Client::new(client_end).unwrap();
//!
//! // 3. query, write, seal — replies stream back in request order
//! let ids = client.query(RangeQuery::new(100, 220)).unwrap();
//! assert!(!ids.is_empty());
//! client.insert(Interval::new(50_000, 150, 180)).unwrap();
//! assert!(client.seal().unwrap()); // folds the write into the arenas
//! assert!(client.query(RangeQuery::new(160, 170)).unwrap().contains(&50_000));
//!
//! server.shutdown();
//! ```
//!
//! For TCP, hand [`Server::listen_tcp`] a bound `TcpListener` and point
//! [`Client`]s at `TcpStream`s (see `examples/serve_client.rs`). The
//! scheduler batches naturally: whenever it is free it executes every
//! request already queued, up to a cap, as one batch, with no timer;
//! admission control bounds outstanding work. The cap and the budgets
//! are tunable via [`ServeConfig`] or the `HINT_SERVE_MAX_BATCH` /
//! `HINT_SERVE_CONN_PENDING` / `HINT_SERVE_MAX_PENDING` environment
//! knobs (see `docs/tuning.md`); `docs/protocol.md` specifies the wire
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod sink;
pub mod transport;

pub use client::{Client, ClientError};
pub use proto::{
    Command, DecodeError, Frame, FrameReader, IndexInfo, Kind, Reply, Request, Status,
    FLAG_INDEXED, FLAG_PRIORITY,
};
pub use server::{AcceptSource, BatchStats, ServeConfig, Server, SnapshotVerbs};
pub use sink::{Records, ServeSink, WireSink};
pub use transport::{duplex, DuplexTransport, Transport};
