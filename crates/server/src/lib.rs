//! # rsp-server — a sharded, batching query-serving subsystem
//!
//! Turns the [`Router`](rsp_core::router::Router) session API into a
//! service: the paper's `O(1)`/`O(log n)` query guarantees, wrapped in the
//! serving stack heavy multi-tenant traffic needs.  Five layers, bottom-up:
//!
//! | layer | module | what it adds |
//! |---|---|---|
//! | wire protocol | [`protocol`] | versioned [`Request`]/[`Response`] enums, typed [`ServerError`] with evidence, length-prefixed framing |
//! | session cache | [`session`] | `Arc<Router>` per scene hash, build-once under concurrency, bounded LRU |
//! | admission | [`admission`] | counts each single point query and answers it on the caller's thread with `Router::distance` |
//! | shards | [`shard`] | hash-partitions scenes across N independent cache+admission pairs |
//! | front ends | [`service`], [`server`], [`client`] | in-process engine, `std::net` TCP server, blocking typed client |
//!
//! The environment is offline and has no async runtime, so the transport is
//! deliberately `std::net` + threads; every layer below the socket is
//! transport-agnostic and would sit unchanged under an async front end.
//!
//! ## Quickstart
//!
//! ```
//! use rsp_server::{Client, RspService, Server, ServiceConfig};
//! use rsp_geom::{ObstacleSet, Point, Rect};
//!
//! let service = RspService::new(ServiceConfig { shards: 2, ..ServiceConfig::default() });
//! let mut server = Server::bind("127.0.0.1:0", service)?;
//! let mut client = Client::connect(server.addr())?;
//!
//! let scene = client.load_scene(&ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)]))?;
//! let d = client.distance(scene, Point::new(0, 0), Point::new(8, 12))?;
//! assert!(d >= 20);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;
pub mod shard;

pub use admission::Admission;
pub use client::{Client, ClientError};
pub use protocol::{
    CacheStats, QueueStats, Request, Response, SceneId, ServerError, ServerStats, SessionStoreStats, ShardStats,
    WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::Server;
pub use service::{RspService, ServiceConfig};
pub use session::SessionCache;
pub use shard::{Shard, ShardSet};
