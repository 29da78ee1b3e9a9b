//! The versioned wire protocol: typed request/response enums, the
//! [`ServerError`] mirror of [`RspError`], and length-prefixed framing.
//!
//! Every message is one *frame*: a 1-byte protocol version, a big-endian
//! `u32` payload length, then the payload — the serde-JSON encoding of a
//! [`Request`] or [`Response`] (externally tagged enums, the upstream serde
//! default).  The frame layer is transport-agnostic (`std::io::Read`/
//! `Write`), so the same codec serves `TcpStream`s and in-memory buffers.
//! A version byte other than [`PROTOCOL_VERSION`] or a frame longer than
//! [`MAX_FRAME_LEN`] is rejected before any payload is read, so a confused
//! peer cannot make the server allocate unboundedly.
//!
//! The message-enum idiom follows GladiusSlicer's `gladius_shared`
//! `messages.rs`/`error.rs` split: one closed enum per direction, and a
//! dedicated error enum whose variants carry the full evidence (offending
//! points, rectangle pairs, scene ids) rather than stringified summaries.

use rsp_core::RspError;
use rsp_geom::{DeltaError, DisjointnessViolation, Dist, ObstacleSet, Point, RectId, RectiPath, SceneDelta};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Version byte prefixed to every frame.  Bump on any wire-visible change.
/// (v2: [`CacheStats`] gained the `resident_bytes` distance-store field.
/// v3: [`ShardStats`] gained `stores`, the per-session distance-store
/// breakdown of [`SessionStoreStats`].  v4: [`Request::UpdateScene`] /
/// [`Response::SceneUpdated`] incremental scene editing, the
/// [`ServerError::InvalidDelta`] mirror, and [`SessionStoreStats`] gained
/// `epoch` plus the delta-reuse counters.  v5: the
/// [`ServerError::DegenerateObstacle`] mirror.  v6: the
/// [`ServerError::CoordinateOutOfRange`] mirror.)
pub const PROTOCOL_VERSION: u8 = 6;

/// Upper bound on a frame's payload length in bytes (16 MiB).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Identifier of a loaded scene: the order-independent
/// [`ObstacleSet::scene_hash`] of its geometry.  Stable across processes,
/// so a client can predict the id of a scene it is about to load.
pub type SceneId = u64;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Load (or touch) a scene: validates the obstacles, builds the
    /// [`Router`](rsp_core::router::Router) session at most once per scene,
    /// and returns its [`SceneId`].
    LoadScene {
        /// The scene geometry.
        obstacles: ObstacleSet,
    },
    /// One point-to-point length query, answered on its own by
    /// [`Router::distance`](rsp_core::router::Router::distance).
    Distance {
        /// Scene to query (from a prior [`Request::LoadScene`]).
        scene: SceneId,
        /// First endpoint.
        a: Point,
        /// Second endpoint.
        b: Point,
    },
    /// Report an actual shortest path between two obstacle vertices.
    Path {
        /// Scene to query.
        scene: SceneId,
        /// Source obstacle vertex.
        source: Point,
        /// Target obstacle vertex.
        target: Point,
    },
    /// A pre-batched set of length queries, served by one
    /// [`Router::distances`](rsp_core::router::Router::distances) call.
    BatchDistances {
        /// Scene to query.
        scene: SceneId,
        /// Query pairs; the response is index-aligned.
        pairs: Vec<(Point, Point)>,
    },
    /// A pre-batched set of vertex-pair path reports.
    BatchPaths {
        /// Scene to query.
        scene: SceneId,
        /// Vertex pairs; the response is index-aligned.
        pairs: Vec<(Point, Point)>,
    },
    /// Edit a resident scene: apply a [`SceneDelta`] to the session loaded
    /// for `base`, producing a **new** scene (addressable by its own
    /// [`SceneId`]) whose session is built by
    /// [`Router::apply_delta`](rsp_core::router::Router::apply_delta) — an
    /// epoch-versioned delta rebuild that reuses every substructure the edit
    /// provably cannot affect.  The base scene stays resident and queryable;
    /// in-flight queries on it are unaffected.  Editing the same base twice
    /// with the same delta is idempotent (the result hashes to the same id).
    UpdateScene {
        /// Scene to edit (from a prior `LoadScene` or `UpdateScene`).
        base: SceneId,
        /// The edit to apply.
        delta: SceneDelta,
    },
    /// Snapshot the server's session-cache and admission statistics.
    Stats,
    /// Drop a scene's cached session, freeing its substructures.
    Evict {
        /// Scene to evict.
        scene: SceneId,
    },
}

/// A server-to-client message.  Every [`Request`] gets exactly one response;
/// failures of any kind arrive as [`Response::Error`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The scene is resident (loaded now or already cached).
    SceneLoaded {
        /// Cache key for subsequent queries.
        scene: SceneId,
        /// Number of obstacles in the scene.
        obstacles: usize,
    },
    /// Answer to [`Request::Distance`].
    Distance {
        /// Shortest obstacle-avoiding rectilinear path length.
        length: Dist,
    },
    /// Answer to [`Request::Path`].
    Path {
        /// A shortest path, as its turning points.
        path: RectiPath,
    },
    /// Answer to [`Request::BatchDistances`], index-aligned with the request.
    Distances {
        /// Shortest-path lengths.
        lengths: Vec<Dist>,
    },
    /// Answer to [`Request::BatchPaths`], index-aligned with the request.
    Paths {
        /// Shortest paths.
        paths: Vec<RectiPath>,
    },
    /// Answer to [`Request::UpdateScene`]: the edited scene is resident.
    SceneUpdated {
        /// Cache key of the *edited* scene for subsequent queries.
        scene: SceneId,
        /// Number of obstacles in the edited scene.
        obstacles: usize,
        /// The edited session's epoch (base epoch + 1; 0 would mean a scene
        /// built from scratch).
        epoch: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Per-shard serving statistics.
        stats: ServerStats,
    },
    /// Answer to [`Request::Evict`].
    Evicted {
        /// Whether the scene was resident before the eviction.
        existed: bool,
    },
    /// The request failed; carries the typed evidence.
    Error {
        /// What went wrong.
        error: ServerError,
    },
}

/// The wire-level error enum: every [`RspError`] variant has a mirror that
/// preserves its evidence verbatim, plus the failure modes only a server
/// has (unknown scene, shutdown, transport).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerError {
    /// Mirror of [`RspError::DegenerateObstacle`].
    DegenerateObstacle {
        /// Id of the zero-width or zero-height obstacle.
        obstacle: RectId,
    },
    /// Mirror of [`RspError::OverlappingObstacles`].
    OverlappingObstacles {
        /// The offending pair, ids and rectangles intact.
        violation: DisjointnessViolation,
    },
    /// Mirror of [`RspError::ObstacleOutsideContainer`].
    ObstacleOutsideContainer {
        /// Id of the obstacle outside the container.
        obstacle: RectId,
    },
    /// Mirror of [`RspError::ContainerNotConvex`].
    ContainerNotConvex,
    /// Mirror of [`RspError::NotAVertex`].
    NotAVertex {
        /// The point that is not an obstacle vertex.
        point: Point,
    },
    /// Mirror of [`RspError::PointOutsideContainer`].
    PointOutsideContainer {
        /// The point outside the instance container.
        point: Point,
    },
    /// Mirror of [`RspError::PointInsideObstacle`].
    PointInsideObstacle {
        /// The offending query point.
        point: Point,
        /// Id of the obstacle containing it.
        obstacle: RectId,
    },
    /// Mirror of [`RspError::ThreadPool`].
    ThreadPool {
        /// The underlying pool-construction failure.
        message: String,
    },
    /// Mirror of [`RspError::InvalidDelta`].
    InvalidDelta {
        /// Why the delta is malformed.
        error: DeltaError,
    },
    /// Mirror of [`RspError::CoordinateOutOfRange`].
    CoordinateOutOfRange {
        /// The point outside the coordinate domain.
        point: Point,
    },
    /// A query referenced a scene that is not resident (never loaded, or
    /// evicted by the LRU bound); the client should re-send `LoadScene`.
    UnknownScene {
        /// The unresolved scene id.
        scene: SceneId,
    },
    /// The server is shutting down and will not answer.  No serving path
    /// produces it since point queries run on the caller's thread; it stays
    /// so existing clients keep decoding every variant.
    ShuttingDown,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownScene { scene } => {
                write!(f, "scene {scene:#018x} is not resident (load it first)")
            }
            ServerError::ShuttingDown => write!(f, "the server is shutting down"),
            other => match other.clone().into_rsp() {
                Some(e) => write!(f, "{e}"),
                None => unreachable!("every non-server-side variant mirrors an RspError"),
            },
        }
    }
}

impl std::error::Error for ServerError {}

impl From<RspError> for ServerError {
    fn from(e: RspError) -> Self {
        match e {
            RspError::DegenerateObstacle(obstacle) => ServerError::DegenerateObstacle { obstacle },
            RspError::OverlappingObstacles(violation) => ServerError::OverlappingObstacles { violation },
            RspError::ObstacleOutsideContainer(obstacle) => ServerError::ObstacleOutsideContainer { obstacle },
            RspError::ContainerNotConvex => ServerError::ContainerNotConvex,
            RspError::NotAVertex(point) => ServerError::NotAVertex { point },
            RspError::PointOutsideContainer(point) => ServerError::PointOutsideContainer { point },
            RspError::PointInsideObstacle { point, obstacle } => ServerError::PointInsideObstacle { point, obstacle },
            RspError::ThreadPool(message) => ServerError::ThreadPool { message },
            RspError::InvalidDelta(error) => ServerError::InvalidDelta { error },
            RspError::CoordinateOutOfRange(point) => ServerError::CoordinateOutOfRange { point },
        }
    }
}

impl ServerError {
    /// Map back to the [`RspError`] this variant mirrors, or `None` for the
    /// server-side variants that have no core equivalent.  Together with
    /// `From<RspError>` this makes the mirroring round-trip testable.
    pub fn into_rsp(self) -> Option<RspError> {
        match self {
            ServerError::DegenerateObstacle { obstacle } => Some(RspError::DegenerateObstacle(obstacle)),
            ServerError::OverlappingObstacles { violation } => Some(RspError::OverlappingObstacles(violation)),
            ServerError::ObstacleOutsideContainer { obstacle } => Some(RspError::ObstacleOutsideContainer(obstacle)),
            ServerError::ContainerNotConvex => Some(RspError::ContainerNotConvex),
            ServerError::NotAVertex { point } => Some(RspError::NotAVertex(point)),
            ServerError::PointOutsideContainer { point } => Some(RspError::PointOutsideContainer(point)),
            ServerError::PointInsideObstacle { point, obstacle } => {
                Some(RspError::PointInsideObstacle { point, obstacle })
            }
            ServerError::ThreadPool { message } => Some(RspError::ThreadPool(message)),
            ServerError::InvalidDelta { error } => Some(RspError::InvalidDelta(error)),
            ServerError::CoordinateOutOfRange { point } => Some(RspError::CoordinateOutOfRange(point)),
            ServerError::UnknownScene { .. } | ServerError::ShuttingDown => None,
        }
    }
}

/// Session-cache statistics of one shard (see
/// [`SessionCache`](crate::session::SessionCache)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Scene resolutions served from a resident session (loads and queries).
    pub hits: u64,
    /// Scene loads that had to build a new session.  A session is built at
    /// most once while resident, so this equals the number of `Router`
    /// constructions the shard has performed.
    pub misses: u64,
    /// Sessions dropped by the LRU bounds (count cap or byte budget).
    pub evictions: u64,
    /// Sessions currently resident.
    pub resident: u64,
    /// Bytes the resident sessions' distance stores currently hold (the sum
    /// of each built router's
    /// [`memory_stats().resident_bytes`](rsp_core::router::Router::memory_stats)).
    pub resident_bytes: u64,
}

/// Point-query admission statistics of one shard (see
/// [`Admission`](crate::admission::Admission)).  Each point query is its own
/// dispatch, so `batches == queries` and `largest_batch <= 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Single point queries answered.
    pub queries: u64,
    /// Dispatches; equal to `queries`.
    pub batches: u64,
    /// Largest single dispatch: 1 once any query has run, else 0.
    pub largest_batch: u64,
}

/// Distance-store memory accounting of one resident session, as reported by
/// [`Router::memory_stats`](rsp_core::router::Router::memory_stats) — so an
/// operator can see resident/hit/miss (and batch-pinning) behaviour per
/// scene over the wire instead of only the shard-wide byte total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStoreStats {
    /// The scene this session serves.
    pub scene: SceneId,
    /// Bytes the session's distance store holds resident.
    pub resident_bytes: u64,
    /// Bytes currently pinned by in-flight batch plans.
    pub pinned_bytes: u64,
    /// The store's configured byte budget.
    pub budget_bytes: u64,
    /// What a dense matrix for this scene would cost.
    pub dense_bytes: u64,
    /// Distance-row requests served from a resident row.
    pub row_hits: u64,
    /// Distance-row requests that ran a single-source sweep.
    pub row_misses: u64,
    /// Distance rows evicted to respect the byte budget.
    pub row_evictions: u64,
    /// The session's epoch: 0 for a scene built from scratch, parent + 1 for
    /// a session produced by [`Request::UpdateScene`].
    pub epoch: u64,
    /// Distance rows the delta build carried over from the base epoch
    /// ([`BuildCounts::rows_reused`](rsp_core::router::BuildCounts)).
    pub rows_reused: u64,
    /// Distance rows the delta build dropped or re-swept.
    pub rows_rebuilt: u64,
    /// Escape staircases carried over from the base epoch.
    pub chains_reused: u64,
    /// Escape staircases re-traced after the edit.
    pub chains_rebuilt: u64,
}

/// One shard's statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Session-cache counters.
    pub sessions: CacheStats,
    /// Point-query admission counters.
    pub queue: QueueStats,
    /// Per-session distance-store breakdown (built sessions only), ordered
    /// by scene id for a stable wire representation.
    pub stores: Vec<SessionStoreStats>,
}

/// Whole-server statistics: one entry per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl ServerStats {
    /// Total sessions built across all shards (the sum of cache misses).
    pub fn total_builds(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.misses).sum()
    }

    /// Total sessions currently resident across all shards.
    pub fn total_resident(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.resident).sum()
    }

    /// Total sessions dropped by LRU bounds across all shards.
    pub fn total_evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.evictions).sum()
    }

    /// Total distance-store bytes resident across all shards' sessions.
    pub fn total_resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.resident_bytes).sum()
    }
}

/// Why a frame could not be read or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An I/O failure mid-frame (carries `ErrorKind` and message text).
    Io(String),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version byte received.
        got: u8,
        /// Version this build speaks ([`PROTOCOL_VERSION`]).
        expected: u8,
    },
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared length.
        len: u32,
    },
    /// The payload was not valid JSON for the expected message type.
    Codec(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(msg) => write!(f, "i/o error: {msg}"),
            WireError::VersionMismatch { got, expected } => {
                write!(f, "protocol version mismatch: peer sent {got}, expected {expected}")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            WireError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(format!("{:?}: {e}", e.kind()))
    }
}

/// Write one framed message: version byte, big-endian length, JSON payload.
pub fn write_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), WireError> {
    let text = serde_json::to_string(msg).map_err(|e| WireError::Codec(e.to_string()))?;
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME_LEN as usize {
        return Err(WireError::FrameTooLarge { len: bytes.len() as u32 });
    }
    w.write_all(&[PROTOCOL_VERSION])?;
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Read one framed message.  A clean end-of-stream at a frame boundary is
/// [`WireError::Closed`]; EOF mid-frame (including a payload shorter than
/// its length prefix) is an I/O error.
pub fn read_message<R: Read, T: Deserialize>(r: &mut R) -> Result<T, WireError> {
    let mut version = [0u8; 1];
    if let Err(e) = r.read_exact(&mut version) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof { WireError::Closed } else { e.into() });
    }
    if version[0] != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch { got: version[0], expected: PROTOCOL_VERSION });
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    // The length prefix is a claim, not a promise: allocate as bytes
    // actually arrive (at most 64 KiB ahead of them), so a peer cannot pin
    // `MAX_FRAME_LEN` per idle connection by announcing a frame it never sends.
    let mut payload = Vec::with_capacity(len.min(64 << 10) as usize);
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        let short = format!("frame claimed {len} bytes, {} arrived", payload.len());
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, short).into());
    }
    let text = String::from_utf8(payload).map_err(|e| WireError::Codec(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| WireError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;
    use std::io::Cursor;

    fn scene() -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(0, 0, 2, 2), Rect::new(4, 4, 6, 8)])
    }

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        let mut cursor = Cursor::new(buf);
        let back: T = read_message(&mut cursor).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let pairs = vec![(Point::new(0, 0), Point::new(5, 5)), (Point::new(2, 2), Point::new(4, 8))];
        roundtrip(&Request::LoadScene { obstacles: scene() });
        roundtrip(&Request::Distance { scene: 42, a: Point::new(-1, 3), b: Point::new(9, 0) });
        roundtrip(&Request::Path { scene: 7, source: Point::new(0, 0), target: Point::new(2, 2) });
        roundtrip(&Request::BatchDistances { scene: u64::MAX, pairs: pairs.clone() });
        roundtrip(&Request::BatchPaths { scene: 1, pairs });
        roundtrip(&Request::UpdateScene {
            base: 42,
            delta: SceneDelta { insert: vec![Rect::new(10, 10, 12, 12)], remove: vec![0] },
        });
        roundtrip(&Request::Stats);
        roundtrip(&Request::Evict { scene: 3 });
    }

    #[test]
    fn every_response_variant_roundtrips() {
        roundtrip(&Response::SceneLoaded { scene: 11, obstacles: 2 });
        roundtrip(&Response::SceneUpdated { scene: 12, obstacles: 3, epoch: 2 });
        roundtrip(&Response::Distance { length: -7 });
        roundtrip(&Response::Path { path: RectiPath::new(vec![Point::new(0, 0), Point::new(0, 4), Point::new(3, 4)]) });
        roundtrip(&Response::Distances { lengths: vec![1, 2, 3] });
        roundtrip(&Response::Paths { paths: vec![RectiPath::new(vec![Point::new(1, 1), Point::new(1, 9)])] });
        let stats = ServerStats {
            shards: vec![ShardStats {
                sessions: CacheStats { hits: 1, misses: 2, evictions: 3, resident: 4, resident_bytes: 512 },
                queue: QueueStats { queries: 5, batches: 6, largest_batch: 7 },
                stores: vec![SessionStoreStats {
                    scene: 11,
                    resident_bytes: 128,
                    pinned_bytes: 64,
                    budget_bytes: 256,
                    dense_bytes: 4096,
                    row_hits: 8,
                    row_misses: 9,
                    row_evictions: 10,
                    epoch: 2,
                    rows_reused: 30,
                    rows_rebuilt: 2,
                    chains_reused: 120,
                    chains_rebuilt: 8,
                }],
            }],
        };
        roundtrip(&Response::Stats { stats });
        roundtrip(&Response::Evicted { existed: true });
        roundtrip(&Response::Error { error: ServerError::UnknownScene { scene: 99 } });
        roundtrip(&Response::Error {
            error: ServerError::InvalidDelta { error: DeltaError::DuplicateRemove { id: 4 } },
        });
    }

    #[test]
    fn frames_reject_bad_versions_and_oversized_lengths() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats).unwrap();
        buf[0] ^= 0xff;
        let got = read_message::<_, Request>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(got, WireError::VersionMismatch { .. }), "{got:?}");

        let mut huge = vec![PROTOCOL_VERSION];
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let got = read_message::<_, Request>(&mut Cursor::new(huge)).unwrap_err();
        assert_eq!(got, WireError::FrameTooLarge { len: MAX_FRAME_LEN + 1 });

        // Clean EOF at a frame boundary is Closed, mid-frame is Io.
        let got = read_message::<_, Request>(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(got, WireError::Closed);
        let got = read_message::<_, Request>(&mut Cursor::new(vec![PROTOCOL_VERSION, 0, 0])).unwrap_err();
        assert!(matches!(got, WireError::Io(_)), "{got:?}");
    }

    #[test]
    fn a_frame_nested_past_the_depth_cap_is_a_codec_error() {
        let payload = vec![b'['; 200_000];
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        let got = read_message::<_, Request>(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(&got, WireError::Codec(msg) if msg.contains("nesting deeper than")), "{got:?}");
    }

    #[test]
    fn a_claimed_length_the_peer_never_sends_is_an_error() {
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
        frame.extend_from_slice(b"{\"Evict\":{\"scene");
        let got = read_message::<_, Request>(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(&got, WireError::Io(msg) if msg.contains("16 arrived")), "{got:?}");
    }

    #[test]
    fn consecutive_frames_stream() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats).unwrap();
        write_message(&mut buf, &Request::Evict { scene: 5 }).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_message::<_, Request>(&mut cursor).unwrap(), Request::Stats);
        assert_eq!(read_message::<_, Request>(&mut cursor).unwrap(), Request::Evict { scene: 5 });
        assert_eq!(read_message::<_, Request>(&mut cursor).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn server_error_display_preserves_evidence() {
        let err = ServerError::PointInsideObstacle { point: Point::new(3, 5), obstacle: 2 };
        let msg = err.to_string();
        assert!(msg.contains("(3, 5)"), "{msg}");
        assert!(msg.contains("obstacle 2"), "{msg}");
        assert!(ServerError::UnknownScene { scene: 0xabcd }.to_string().contains("0x000000000000abcd"));
    }
}
