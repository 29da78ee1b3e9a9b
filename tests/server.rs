//! Integration tests for the `rsp-server` serving subsystem: concurrent
//! TCP clients sharing build-once sessions, single and batched answers
//! agreeing bitwise with direct `Router` calls, the LRU residency bound over
//! the wire, hostile geometry and hostile frames coming back as a typed
//! error or a closed connection instead of a dead shard or process, and
//! (property-based) the `RspError` → `ServerError` wire mapping preserving
//! every variant's evidence through a wire frame.

use proptest::prelude::*;
use rectilinear_shortest_paths::geom::hanan::ground_truth_distance;
use rectilinear_shortest_paths::geom::{DeltaError, DisjointnessViolation, COORD_LIMIT};
use rectilinear_shortest_paths::server::protocol::{read_message, write_message};
use rectilinear_shortest_paths::server::{
    Client, ClientError, Request, Response, RspService, Server, ServerError, ServiceConfig, WireError, PROTOCOL_VERSION,
};
use rectilinear_shortest_paths::workload::{query_pairs, uniform_disjoint};
use rectilinear_shortest_paths::{ObstacleSet, Point, Rect, Router, RspError};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Three concurrent TCP clients over two scenes: every answer (singles,
/// pre-batched, paths) must agree with a direct `Router` on the
/// same geometry, and the two scenes must build exactly twice no matter
/// how many clients load them.
#[test]
fn three_concurrent_clients_share_two_sessions() {
    let scene_a = uniform_disjoint(8, 101).obstacles;
    let scene_b = uniform_disjoint(8, 202).obstacles;
    let direct_a = Router::new(scene_a.clone()).unwrap();
    let direct_b = Router::new(scene_b.clone()).unwrap();

    let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", RspService::new(config)).unwrap();
    let addr = server.addr();

    // Clients 0 and 1 hammer scene A (their loads must share one session);
    // client 2 works scene B.
    let mut handles = Vec::new();
    for worker in 0..3usize {
        let (obstacles, direct_seed) = if worker < 2 { (scene_a.clone(), 101u64) } else { (scene_b.clone(), 202) };
        handles.push(thread::spawn(move || {
            let direct = Router::new(obstacles.clone()).unwrap();
            let mut client = Client::connect(addr).unwrap();
            let scene = client.load_scene(&obstacles).unwrap();
            assert_eq!(scene, obstacles.scene_hash());

            // Single queries: bitwise-identical to direct calls.
            let mut pairs = query_pairs(&obstacles, 12, true, direct_seed + worker as u64);
            pairs.extend(query_pairs(&obstacles, 12, false, direct_seed + 10 + worker as u64));
            for &(a, b) in &pairs {
                assert_eq!(client.distance(scene, a, b).unwrap(), direct.distance(a, b).unwrap(), "{a:?}->{b:?}");
            }

            // Pre-batched queries: index-aligned and identical.
            assert_eq!(client.batch_distances(scene, &pairs).unwrap(), direct.distances(&pairs).unwrap());

            // A path certifies against the distance it claims.
            let verts = obstacles.vertices();
            let path = client.path(scene, verts[0], verts[verts.len() - 1]).unwrap();
            assert_eq!(path.length(), direct.vertex_distance(verts[0], verts[verts.len() - 1]).unwrap());
            assert!(path.avoids(&obstacles));
            scene
        }));
    }
    let scenes: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(scenes[0], scenes[1], "clients 0 and 1 share a scene id");
    assert_ne!(scenes[0], scenes[2]);

    // Two distinct scenes, three clients: exactly two Router builds.
    let stats = server.service().stats();
    assert_eq!(stats.total_builds(), 2, "{stats:?}");
    assert_eq!(stats.total_resident(), 2);

    // The resident sessions are the ones every client used, built once each
    // (BuildCounts certifies the lazy substructures), and repeated lookups
    // hand out the same `Arc<Router>`.
    let session_a = server.service().session(scenes[0]).unwrap();
    assert!(Arc::ptr_eq(&session_a, &server.service().session(scenes[0]).unwrap()));
    assert_eq!(session_a.build_counts().oracle_builds, 1);
    let session_b = server.service().session(scenes[2]).unwrap();
    assert_eq!(session_b.build_counts().oracle_builds, 1);
    assert_eq!(
        session_a.distance(Point::new(0, 0), Point::new(3, 3)),
        direct_a.distance(Point::new(0, 0), Point::new(3, 3))
    );
    assert_eq!(
        session_b.distance(Point::new(0, 0), Point::new(3, 3)),
        direct_b.distance(Point::new(0, 0), Point::new(3, 3))
    );

    // Wire-level stats and evict agree with the service view.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().total_resident(), 2);
    assert!(client.evict(scenes[0]).unwrap());
    assert!(!client.evict(scenes[0]).unwrap());
    match client.distance(scenes[0], Point::new(0, 0), Point::new(1, 1)) {
        Err(e) => assert_eq!(
            format!("{e}"),
            format!("server error: scene {:#018x} is not resident (load it first)", scenes[0])
        ),
        Ok(d) => panic!("evicted scene still answered: {d}"),
    }
    server.shutdown();
}

/// The session cache's LRU bound holds over the wire: a one-shard server
/// with capacity 2 stays at two resident sessions while a client cycles
/// through four scenes.
#[test]
fn lru_bound_caps_resident_sessions_over_tcp() {
    let config = ServiceConfig { shards: 1, session_capacity: 2, ..ServiceConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", RspService::new(config)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut ids = Vec::new();
    for offset in 0..4i64 {
        let obstacles = ObstacleSet::new(vec![Rect::new(offset * 20, 0, offset * 20 + 3, 5)]);
        let scene = client.load_scene(&obstacles).unwrap();
        // The freshly loaded scene is usable immediately.
        let d = client.distance(scene, Point::new(offset * 20 - 2, 0), Point::new(offset * 20 + 5, 5)).unwrap();
        assert!(d > 0);
        ids.push(scene);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.total_resident(), 2, "{stats:?}");
    assert_eq!(stats.total_evictions(), 2);
    assert_eq!(stats.total_builds(), 4);
    // The two most recent scenes survived; the oldest was evicted.
    assert!(server.service().session(ids[3]).is_ok());
    assert_eq!(server.service().session(ids[0]).err(), Some(ServerError::UnknownScene { scene: ids[0] }));
    server.shutdown();
}

/// Send `msg` through a wire frame and read it back.
fn over_the_wire<T: Serialize + Deserialize>(msg: &T) -> T {
    let mut frame = Vec::new();
    write_message(&mut frame, msg).expect("encode");
    read_message(&mut &frame[..]).expect("decode")
}

/// A zero-width rectangle decoded from a client frame (serde bypasses
/// `Rect::new`'s assert) must come back as a typed error, not reach the
/// sweep and panic: a valid point query on the same (only) shard must
/// still answer within a deadline.
#[test]
fn degenerate_obstacle_from_the_wire_is_typed_and_leaves_the_shard_serving() {
    let service = Arc::new(RspService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() }));
    let flat = ObstacleSet::new(vec![Rect { xmin: 0, ymin: 0, xmax: 0, ymax: 4 }]);
    let decoded: Request = over_the_wire(&Request::LoadScene { obstacles: flat.clone() });
    assert_eq!(decoded, Request::LoadScene { obstacles: flat.clone() }, "a degenerate rect still decodes");
    let rejected = Response::Error { error: ServerError::DegenerateObstacle { obstacle: 0 } };
    assert_eq!(service.handle(decoded), rejected);
    // A point query naming the rejected scene gets the same typed error.
    let (a, b) = (Point::new(-1, -1), Point::new(20, 20));
    assert_eq!(service.handle(Request::Distance { scene: flat.scene_hash(), a, b }), rejected);

    let good = uniform_disjoint(6, 3).obstacles;
    let scene = match service.handle(Request::LoadScene { obstacles: good.clone() }) {
        Response::SceneLoaded { scene, .. } => scene,
        other => panic!("valid scene failed to load: {other:?}"),
    };
    let (a, b) = query_pairs(&good, 1, false, 5)[0];
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(&service);
    thread::spawn(move || tx.send(worker.handle(Request::Distance { scene, a, b })));
    let expect = Router::new(good).unwrap().distance(a, b).unwrap();
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Response::Distance { length }) => assert_eq!(length, expect),
        other => panic!("the shard stopped answering: {other:?}"),
    }
}

/// A frame of 200 000 `[` bytes (1.2% of `MAX_FRAME_LEN`) used to overflow
/// the connection thread's stack in the JSON parser and abort the whole
/// process.  Now the parser's depth cap turns it into a codec error: the
/// offending connection is closed, and the same server keeps serving.
#[test]
fn a_deeply_nested_frame_closes_its_connection_and_the_server_survives() {
    let mut server = Server::bind("127.0.0.1:0", RspService::new(ServiceConfig::default())).unwrap();
    let mut bomb = TcpStream::connect(server.addr()).unwrap();
    let payload = vec![b'['; 200_000];
    bomb.write_all(&[PROTOCOL_VERSION]).unwrap();
    bomb.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    bomb.write_all(&payload).unwrap();
    bomb.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reply = Vec::new();
    assert!(bomb.read_to_end(&mut reply).is_ok(), "the server closes the connection");
    assert!(reply.is_empty(), "an undecodable frame gets no reply");

    let mut client = Client::connect(server.addr()).unwrap();
    let obstacles = uniform_disjoint(6, 3).obstacles;
    let scene = client.load_scene(&obstacles).unwrap();
    let (a, b) = query_pairs(&obstacles, 1, false, 5)[0];
    assert_eq!(client.distance(scene, a, b).unwrap(), Router::new(obstacles).unwrap().distance(a, b).unwrap());
    server.shutdown();
}

/// Coordinates outside `±COORD_LIMIT` are a typed error, never a panic or
/// a wrong number: a rectangle hugging `i64::MAX` used to panic inside the
/// container construction (killing the connection thread with no
/// response), and a scene at `±i64::MAX / 2` used to build and answer a
/// negative distance.
#[test]
fn out_of_range_coordinates_are_typed_and_never_answered() {
    let service = RspService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let huge = Rect { xmin: i64::MAX - 3, ymin: 0, xmax: i64::MAX - 1, ymax: 4 };
    let scene = ObstacleSet::new(vec![huge, Rect::new(0, 0, 2, 2)]);
    let rejected = ServerError::CoordinateOutOfRange { point: Point::new(i64::MAX - 3, 0) };
    assert_eq!(service.handle(Request::LoadScene { obstacles: scene.clone() }), Response::Error { error: rejected });

    let m = i64::MAX / 2;
    let spread = ObstacleSet::new(vec![Rect::new(-m, -m, -m + 4, -m + 4), Rect::new(m - 4, m - 4, m, m)]);
    let low = Point::new(-m, -m);
    assert_eq!(Router::new(spread.clone()).err(), Some(RspError::CoordinateOutOfRange(low)));
    let rejected = Response::Error { error: ServerError::CoordinateOutOfRange { point: low } };
    assert_eq!(service.handle(Request::LoadScene { obstacles: spread }), rejected);

    // Over TCP the connection answers the typed error and keeps serving.
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.load_scene(&scene) {
        Err(ClientError::Server(ServerError::CoordinateOutOfRange { point })) => {
            assert_eq!(point, Point::new(i64::MAX - 3, 0))
        }
        other => panic!("expected a typed coordinate error, got {other:?}"),
    }
    let good = uniform_disjoint(4, 9).obstacles;
    let id = client.load_scene(&good).unwrap();
    let far = Point::new(COORD_LIMIT + 1, 0);
    match client.distance(id, far, Point::new(0, 0)) {
        Err(ClientError::Server(ServerError::CoordinateOutOfRange { point })) => assert_eq!(point, far),
        other => panic!("expected a typed coordinate error, got {other:?}"),
    }
    let (a, b) = query_pairs(&good, 1, false, 4)[0];
    assert_eq!(client.distance(id, a, b).unwrap(), Router::new(good).unwrap().distance(a, b).unwrap());
    server.shutdown();
}

/// A scene reaching the corners of the coordinate domain answers exactly:
/// vertex pairs and arbitrary points (including points on `±COORD_LIMIT`)
/// match the Hanan-grid ground truth.
#[test]
fn scenes_at_the_coordinate_limit_answer_exactly() {
    let l = COORD_LIMIT;
    let base = uniform_disjoint(6, 3).obstacles;
    let reach = base.iter().flat_map(|r| [r.xmin, r.ymin, r.xmax, r.ymax]).map(i64::abs).max().unwrap();
    let k = l / 2 / reach;
    let mut rects: Vec<Rect> = base.iter().map(|r| Rect::new(k * r.xmin, k * r.ymin, k * r.xmax, k * r.ymax)).collect();
    rects.push(Rect::new(-l, -l, -l + k, -l + k));
    rects.push(Rect::new(l - k, l - k, l, l));
    let scene = ObstacleSet::new(rects);
    let router = Router::new(scene.clone()).unwrap();
    let verts = scene.vertices();
    let mut pairs: Vec<(Point, Point)> =
        verts.iter().step_by(3).flat_map(|&a| verts.iter().step_by(5).map(move |&b| (a, b))).collect();
    let corners = [Point::new(-l, l), Point::new(l, -l), Point::new(0, l), Point::new(-l, 0)];
    for &c in &corners {
        pairs.extend(verts.iter().step_by(4).map(|&v| (c, v)));
        pairs.extend(corners.iter().map(|&d| (c, d)));
    }
    let answers = router.distances(&pairs).unwrap();
    for (&(a, b), &d) in pairs.iter().zip(&answers) {
        assert_eq!(d, ground_truth_distance(&scene, a, b), "{a:?} -> {b:?}");
        assert_eq!(router.distance(a, b).unwrap(), d, "{a:?} -> {b:?}");
    }
}

/// A reply frame holding a path with a diagonal step used to panic the
/// client inside `Chain::new`.  Now it is a codec error on that call.
#[test]
fn a_malformed_path_response_is_a_client_error_not_a_panic() {
    // `Response::Path` (variant 2) holding (0,0) -> (1,1), then
    // `Response::Paths` (variant 4) holding that one path.
    let replies: [&[u8]; 2] = [&[2, 2, 0, 0, 2, 2], &[4, 1, 2, 0, 0, 2, 2]];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for payload in replies {
            let _: Request = read_message(&mut stream).unwrap();
            stream.write_all(&[PROTOCOL_VERSION]).unwrap();
            stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
            stream.write_all(payload).unwrap();
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let (a, b) = (Point::new(0, 0), Point::new(1, 1));
    let single = client.path(7, a, b).unwrap_err();
    let batch = client.batch_paths(7, &[(a, b)]).unwrap_err();
    peer.join().unwrap();
    for got in [single, batch] {
        assert!(
            matches!(&got, ClientError::Wire(WireError::Codec(msg)) if msg.contains("not axis-parallel")),
            "{got:?}"
        );
    }
}

/// Build one of each `RspError` variant from sampled evidence.
fn rsp_error_from(selector: u8, x: i64, y: i64, id_a: usize, id_b: usize) -> RspError {
    match selector % 10 {
        0 => RspError::OverlappingObstacles(DisjointnessViolation {
            first: id_a,
            second: id_b,
            first_rect: Rect::new(x, y, x + 2, y + 2),
            second_rect: Rect::new(x + 1, y + 1, x + 3, y + 3),
        }),
        1 => RspError::ObstacleOutsideContainer(id_a),
        2 => RspError::ContainerNotConvex,
        3 => RspError::NotAVertex(Point::new(x, y)),
        4 => RspError::PointOutsideContainer(Point::new(x, y)),
        5 => RspError::PointInsideObstacle { point: Point::new(x, y), obstacle: id_b },
        6 => RspError::DegenerateObstacle(id_a),
        7 => RspError::InvalidDelta(DeltaError::RemoveOutOfRange { id: id_a, len: id_b }),
        8 => RspError::CoordinateOutOfRange(Point::new(x, y)),
        _ => RspError::ThreadPool(format!("pool of {id_a} threads unavailable")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `RspError` variant maps onto a `ServerError`, survives a
    /// wire frame round trip bit-for-bit, and maps back to an
    /// `RspError` rendering identically (the evidence is intact).
    #[test]
    fn every_rsp_error_survives_the_wire(
        selector in 0u8..10,
        x in -1000i64..1000,
        y in -1000i64..1000,
        id_a in 0usize..10_000,
        id_b in 0usize..10_000,
    ) {
        let original = rsp_error_from(selector, x, y, id_a, id_b);
        let wire = ServerError::from(original.clone());
        let decoded: ServerError = over_the_wire(&wire);
        prop_assert_eq!(&decoded, &wire);
        // The evidence survives: mapping back yields an error that renders
        // exactly like the original (Display carries every field).
        let back = decoded.into_rsp().expect("mirrored variants map back");
        prop_assert_eq!(format!("{back}"), format!("{original}"));
        prop_assert_eq!(format!("{}", ServerError::from(back)), format!("{wire}"));
    }
}
