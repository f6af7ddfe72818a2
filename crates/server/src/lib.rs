//! # gbmqo-server
//!
//! A concurrent query service over the GB-MQO [`Session`] engine,
//! speaking a length-prefixed binary protocol (v3) over TCP.
//!
//! The paper this repository reproduces ("Efficient Computation of
//! Multiple Group By Queries", SIGMOD 2005) optimizes *sets* of Group
//! By queries together. A server is where such sets naturally arise:
//! independent clients concurrently asking for different grouping sets
//! of the same relation are, within a small time window, exactly one
//! multi-query workload. This crate serves three purposes:
//!
//! * **Protocol** ([`protocol`], [`codec`], [`compress`]): versioned,
//!   framed request/response messages with pipelining (client-chosen
//!   request ids, out-of-order completion), feature negotiation with
//!   optional LZ4-style frame compression, a columnar wire format with
//!   a zero-copy decode path ([`codec::TableView`]), and results
//!   streamed as bounded [`Response::Chunk`] frames terminated by a
//!   summary carrying execution metrics.
//! * **Server** ([`server`], [`reactor`], [`batcher`]): a single
//!   readiness-driven connection core (epoll on Linux) multiplexing
//!   every socket nonblockingly, a shared-session worker pool, bounded
//!   admission with load shedding, credit-based per-connection
//!   outbound backpressure, per-request deadlines enforced by
//!   cooperative cancellation inside the engine, micro-batching of
//!   concurrent queries into merged workloads, graceful drain on
//!   shutdown.
//! * **Client** ([`client`]): a blocking, pipelining-capable client
//!   whose [`ResultStream`] yields chunks incrementally, used by the
//!   CLI, benchmarks, and integration tests.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gbmqo_core::prelude::*;
//! use gbmqo_server::{Client, Server, ServerConfig};
//!
//! let session = Session::builder().plan_cache(32).build().unwrap();
//! let handle = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.ping().unwrap();
//! // client.register_table("r", &table)?;
//! // for batch in client.stream_query("r", &["a"], 0)? { /* bounded chunks */ }
//!
//! handle.shutdown(); // drains in-flight requests, joins all threads
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod codec;
pub mod compress;
pub mod error;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{Client, ClientOptions, Reply, ResultStream, RowBatch, StreamSummary};
pub use error::{ErrorCode, ServerError, ServerResult};
pub use gbmqo_core::CacheControl;
pub use protocol::{Request, Response, FEATURE_LZ4, PROTOCOL_VERSION};
pub use server::{stats_field, Server, ServerConfig, ServerHandle};
