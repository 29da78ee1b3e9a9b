//! The versioned wire protocol: typed request/response enums, the
//! [`ServerError`] mirror of [`RspError`], and length-prefixed framing.
//!
//! Every message is one *frame*: a 1-byte protocol version, a big-endian
//! `u32` payload length, then the payload — the binary encoding of a
//! [`Request`] or [`Response`] by the vendored serde's
//! [`Serialize::encode`].  That encoding is positional: an enum is its
//! LEB128 variant index in declaration order followed by the variant's
//! fields, a struct is its fields in declaration order, integers are
//! (zigzag) LEB128, and a `Vec` or `String` is its LEB128 length followed by
//! its elements, so a [`Point`] is two varints.  [`write_message`] encodes
//! straight into the frame buffer behind a reserved header and sends the
//! frame with one `write_all`.
//!
//! The frame layer is transport-agnostic (`std::io::Read`/`Write`), so the
//! same codec serves `TcpStream`s and in-memory buffers.  A version byte
//! other than [`PROTOCOL_VERSION`] or a frame longer than [`MAX_FRAME_LEN`]
//! is rejected before any payload is read, so a confused peer cannot make
//! the server allocate unboundedly.  Decoding checks every length prefix
//! against the payload bytes left before it allocates, recurses only along
//! the message types' own structure (so no input can drive its depth), and
//! rejects trailing bytes.
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
/// [`ServerError::CoordinateOutOfRange`] mirror.  v7: binary payloads
/// replace JSON text; the message types are unchanged.  v8: the
/// [`ServerError::Internal`] reply to a request whose handler panicked.)
pub const PROTOCOL_VERSION: u8 = 8;

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
/// has (unknown scene, shutdown, a panicked handler).
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
    /// Handling the request panicked.  The server answers with the panic
    /// message and keeps the connection open; the scene's session stays
    /// usable.
    Internal {
        /// The panic message (or a placeholder for a non-string payload).
        message: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownScene { scene } => {
                write!(f, "scene {scene:#018x} is not resident (load it first)")
            }
            ServerError::ShuttingDown => write!(f, "the server is shutting down"),
            ServerError::Internal { message } => write!(f, "internal server error: {message}"),
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
            ServerError::UnknownScene { .. } | ServerError::ShuttingDown | ServerError::Internal { .. } => None,
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
    /// The payload is not a valid binary encoding of the expected message
    /// type: an unknown variant index, a malformed or out-of-range integer,
    /// a length past the payload's end, invalid UTF-8, a diagonal path step,
    /// or bytes left over after the message.
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

/// Bytes before the payload: the version byte and the big-endian length.
const HEADER_LEN: usize = 5;

/// Write one framed message: version byte, big-endian length, binary
/// payload, all in one `write_all`.
pub fn write_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), WireError> {
    let mut frame = vec![PROTOCOL_VERSION, 0, 0, 0, 0];
    msg.encode(&mut frame);
    let len = u32::try_from(frame.len() - HEADER_LEN).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    frame[1..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
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
    serde::from_bytes(&payload).map_err(|e| WireError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// 200 000 `[` bytes used to overflow the stack of the JSON parser
    /// that v6 frames went through.  The binary decoder recurses only along
    /// the message types, so the frame is just an unknown variant index.
    #[test]
    fn a_frame_nested_past_the_depth_cap_is_a_codec_error() {
        let payload = vec![b'['; 200_000];
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        let got = read_message::<_, Request>(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(&got, WireError::Codec(_)), "{got:?}");
    }

    fn framed<T: Serialize>(msg: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_message(&mut bytes, msg).unwrap();
        bytes
    }

    /// A frame around a hand-built payload.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn a_count_past_the_payload_is_refused_before_allocating() {
        // `BatchDistances` (variant 3) on scene 1 claiming 2^40 pairs: a
        // 16-byte frame whose count alone would be a 32 TiB allocation.
        let mut payload = vec![3, 1];
        serde::write_varint(&mut payload, 1 << 40);
        payload.extend_from_slice(&[0, 0, 0]);
        let frame = frame(&payload);
        assert_eq!(frame.len(), 16);
        let got = read_message::<_, Request>(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(&got, WireError::Codec(msg) if msg.contains("exceeds")), "{got:?}");
    }

    #[test]
    fn trailing_bytes_are_a_codec_error() {
        let got = read_message::<_, Request>(&mut Cursor::new(frame(&[6, 0]))).unwrap_err();
        assert!(matches!(&got, WireError::Codec(msg) if msg.contains("trailing")), "{got:?}");
    }

    /// One pinned frame per [`Request`] variant.  The encoding is positional,
    /// so reordering variants or fields changes these bytes: bump
    /// [`PROTOCOL_VERSION`] and re-pin them together.
    #[test]
    fn request_frames_match_their_golden_bytes() {
        let golden: [(Request, &[u8]); 8] = [
            (Request::LoadScene { obstacles: ObstacleSet::new(vec![Rect::new(0, 0, 2, 2)]) }, &[0, 1, 0, 0, 4, 4]),
            (Request::Distance { scene: 42, a: Point::new(-1, 3), b: Point::new(9, 0) }, &[1, 42, 1, 6, 18, 0]),
            (Request::Path { scene: 7, source: Point::new(0, 0), target: Point::new(2, 2) }, &[2, 7, 0, 0, 4, 4]),
            (
                Request::BatchDistances { scene: 300, pairs: vec![(Point::new(0, 0), Point::new(5, 5))] },
                &[3, 0xac, 0x02, 1, 0, 0, 10, 10],
            ),
            (Request::BatchPaths { scene: 1, pairs: Vec::new() }, &[4, 1, 0]),
            (
                Request::UpdateScene {
                    base: 42,
                    delta: SceneDelta { insert: vec![Rect::new(10, 10, 12, 12)], remove: vec![0] },
                },
                &[5, 42, 1, 20, 20, 24, 24, 1, 0],
            ),
            (Request::Stats, &[6]),
            (Request::Evict { scene: 3 }, &[7, 3]),
        ];
        assert_eq!(PROTOCOL_VERSION, 8, "re-pin the golden bytes when the version changes");
        for (request, payload) in golden {
            assert_eq!(framed(&request), frame(payload), "{request:?}");
            roundtrip(&request);
        }
        // The v8 variant: `Response::Error` (8) holding `Internal` (12).
        let internal = Response::Error { error: ServerError::Internal { message: "boom".into() } };
        assert_eq!(framed(&internal), frame(&[8, 12, 4, b'b', b'o', b'o', b'm']));
    }

    #[test]
    fn a_path_with_a_diagonal_step_is_a_codec_error() {
        // `Response::Path` (variant 2) holding the two points (0,0), (1,1),
        // and `Response::Paths` (variant 4) holding that one path.
        for payload in [&[2, 2, 0, 0, 2, 2][..], &[4, 1, 2, 0, 0, 2, 2]] {
            let got = read_message::<_, Response>(&mut Cursor::new(frame(payload))).unwrap_err();
            assert!(matches!(&got, WireError::Codec(msg) if msg.contains("not axis-parallel")), "{got:?}");
        }
    }

    /// Decode `bytes` as a `T` frame: it must be `Ok` or a [`WireError`], and
    /// an `Ok` value must survive its own round trip.
    fn decodes_or_errs<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(bytes: &[u8]) {
        if let Ok(msg) = read_message::<_, T>(&mut Cursor::new(bytes)) {
            roundtrip(&msg);
        }
    }

    fn sample_frames() -> Vec<Vec<u8>> {
        let pairs = vec![(Point::new(0, 0), Point::new(5, 5)), (Point::new(-2, 2), Point::new(4, 8))];
        let requests = [
            Request::LoadScene { obstacles: scene() },
            Request::Distance { scene: 42, a: Point::new(-1, 3), b: Point::new(9, 0) },
            Request::BatchDistances { scene: u64::MAX, pairs: pairs.clone() },
            Request::BatchPaths { scene: 1, pairs },
            Request::UpdateScene {
                base: 42,
                delta: SceneDelta { insert: vec![Rect::new(1, 1, 3, 3)], remove: vec![0] },
            },
            Request::Evict { scene: 3 },
        ];
        let path = RectiPath::new(vec![Point::new(0, 0), Point::new(0, 4), Point::new(3, 4)]);
        let responses = [
            Response::SceneUpdated { scene: 12, obstacles: 3, epoch: 2 },
            Response::Distances { lengths: vec![1, -2, 300] },
            Response::Path { path: path.clone() },
            Response::Paths { paths: vec![path.clone(), path] },
            Response::Error { error: ServerError::ThreadPool { message: "né".into() } },
            Response::Error { error: ServerError::PointInsideObstacle { point: Point::new(3, -5), obstacle: 2 } },
        ];
        requests.iter().map(framed).chain(responses.iter().map(framed)).collect()
    }

    #[test]
    fn every_truncation_and_byte_mutation_of_a_valid_frame_decodes_or_errs() {
        for valid in sample_frames() {
            for cut in 0..valid.len() {
                decodes_or_errs::<Request>(&valid[..cut]);
                decodes_or_errs::<Response>(&valid[..cut]);
            }
            for at in 0..valid.len() {
                for byte in 0..=255u8 {
                    let mut mutated = valid.clone();
                    mutated[at] = byte;
                    decodes_or_errs::<Request>(&mutated);
                    decodes_or_errs::<Response>(&mutated);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — raw, behind a valid header, and behind a valid
        /// header and variant index — never panic the decoder, and whatever
        /// decodes re-encodes to itself.
        #[test]
        fn random_bytes_decode_or_err(variant in 0u8..9, bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let mut tagged = vec![variant];
            tagged.extend_from_slice(&bytes);
            for candidate in [bytes.clone(), frame(&bytes), frame(&tagged)] {
                decodes_or_errs::<Request>(&candidate);
                decodes_or_errs::<Response>(&candidate);
            }
        }
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
        assert_eq!(ServerError::Internal { message: "boom".into() }.to_string(), "internal server error: boom");
    }
}
