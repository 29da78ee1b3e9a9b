//! The TCP front end: a `std::net` accept loop framing [`RspService`].
//!
//! Deliberately boring: one OS thread per connection reading framed
//! [`Request`]s and writing framed [`Response`]s (the environment has no
//! async runtime — see the vendoring note in DESIGN.md §7).  All serving
//! intelligence lives behind [`RspService::handle`]; this module only owns
//! sockets and thread lifecycles.  A closed connection releases its socket
//! clone at once and its thread handle on the next accept, so reconnecting
//! clients cannot exhaust file descriptors.  A handler that panics answers
//! its request with [`ServerError::Internal`] and the connection keeps
//! serving.  [`Server::shutdown`] (also run
//! on drop) closes the listener and every open connection, then joins all
//! threads.
//!
//! Two private bounds keep clients from exhausting the server's threads.
//! At most `MAX_CONNECTIONS` connections are served at once: a client past
//! the cap is answered with one [`ServerError::TooManyConnections`] frame
//! and disconnected.  A connection that sends nothing for `IDLE_TIMEOUT`
//! (between requests or mid-frame) is closed, releasing its thread.

use crate::protocol::{read_message, write_message, Request, Response, ServerError, WireError};
use crate::service::RspService;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most connections served at once.
const MAX_CONNECTIONS: usize = 1024;

/// How long a connection may wait for its client's next bytes before the
/// server closes it.  Generous: closed-loop clients send their next request
/// as soon as the last answer arrives, and even a client that thinks between
/// requests rarely idles for minutes.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// The connection bounds a server runs with (`MAX_CONNECTIONS` and
/// `IDLE_TIMEOUT`; tests shrink them).
#[derive(Clone, Copy)]
struct Limits {
    max_connections: usize,
    idle_timeout: Duration,
}

struct ServerShared {
    service: RspService,
    limits: Limits,
    shutdown: AtomicBool,
    /// Clones of every live connection's stream, keyed by connection id, so
    /// shutdown can unblock reader threads by closing their sockets.  Each
    /// connection removes its own entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running TCP server.  Dropping it shuts the server down.
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections for `service`.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: RspService) -> io::Result<Server> {
        Self::bind_with(addr, service, Limits { max_connections: MAX_CONNECTIONS, idle_timeout: IDLE_TIMEOUT })
    }

    fn bind_with<A: ToSocketAddrs>(addr: A, service: RspService, limits: Limits) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            limits,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conn_threads = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("rsp-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_conn_threads))?;
        Ok(Server { shared, addr, accept_thread: Some(accept_thread), conn_threads })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this server (introspection for tests and stats).
    pub fn service(&self) -> &RspService {
        &self.shared.service
    }

    /// Stop accepting, close every open connection, and join all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Unblock connection readers by closing their sockets.
        for (_, stream) in lock(&self.shared.conns).drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conn_threads).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lock one of the server's own maps, recovering the guard if a thread
/// panicked while holding it: every update under `conns` and `conn_threads`
/// inserts, removes or drains whole entries, so a poisoned map is still
/// consistent, and an accept loop that panicked on it would serve no one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>, threads: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            // Out of descriptors (or a transient accept error): back off
            // rather than spin until a connection closes.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_nodelay(true);
        {
            let mut conns = lock(&shared.conns);
            if conns.len() >= shared.limits.max_connections {
                drop(conns);
                refuse(stream, shared.limits.max_connections);
                continue;
            }
            // A connection shutdown could not close is not served at all.
            let Ok(clone) = stream.try_clone() else { continue };
            conns.insert(id, clone);
        }
        let _ = stream.set_read_timeout(Some(shared.limits.idle_timeout));
        let conn_shared = Arc::clone(shared);
        let spawned =
            std::thread::Builder::new().name("rsp-conn".into()).spawn(move || serve_conn(id, stream, &conn_shared));
        let mut threads = lock(threads);
        threads.retain(|handle| !handle.is_finished());
        if let Ok(handle) = spawned {
            threads.push(handle);
        }
    }
}

/// Answer a connection past the cap with one typed refusal and close it,
/// without reading from it.  The frame is small enough for the socket's send
/// buffer, and the write timeout bounds the accept loop's wait if it is not.
fn refuse(mut stream: TcpStream, limit: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let error = ServerError::TooManyConnections { limit: limit as u64 };
    if write_message(&mut stream, &Response::Error { error }).is_ok() {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
}

/// One connection: a strict request/response loop.  Ends (closing the
/// connection and dropping its entry in `conns`) on peer disconnect, any
/// framing error, an idle read timeout, or server shutdown.
fn serve_conn(id: u64, mut stream: TcpStream, shared: &ServerShared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let request: Request = match read_message(&mut stream) {
            Ok(request) => request,
            // A peer speaking garbage gets no reply we could frame reliably;
            // closing the connection is the protocol's error signal.
            Err(WireError::Closed) | Err(_) => break,
        };
        let response = guarded(|| shared.service.handle(request));
        if write_message(&mut stream, &response).is_err() {
            break;
        }
    }
    lock(&shared.conns).remove(&id);
}

/// Run a request handler, turning a panic into a [`ServerError::Internal`]
/// reply.  Without this a panic would unwind the connection thread past the
/// `conns` cleanup, and the client would wait on an open socket until the
/// server shut down.  Asserting unwind safety is sound: the service's
/// shared state is behind locks that either recover their guard (the
/// router's tree lock and row cache, the session map) or are never held
/// across a call that can panic.
fn guarded(handle: impl FnOnce() -> Response) -> Response {
    catch_unwind(AssertUnwindSafe(handle)).unwrap_or_else(|payload| {
        let message = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(message), _) => (*message).to_string(),
            (_, Some(message)) => message.clone(),
            _ => "non-string panic payload".to_string(),
        };
        Response::Error { error: ServerError::Internal { message } }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientError, ServiceConfig};
    use rsp_geom::{ObstacleSet, Point, Rect};
    use std::time::Instant;

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panicking_handler_becomes_a_typed_internal_error() {
        let reply = guarded(|| panic!("handler blew up"));
        assert_eq!(reply, Response::Error { error: ServerError::Internal { message: "handler blew up".into() } });
        let formatted = guarded(|| panic!("scene {}", 7));
        assert_eq!(formatted, Response::Error { error: ServerError::Internal { message: "scene 7".into() } });
        let opaque = guarded(|| std::panic::panic_any(42u8));
        assert!(matches!(opaque, Response::Error { error: ServerError::Internal { .. } }), "{opaque:?}");
        assert_eq!(guarded(|| Response::Evicted { existed: true }), Response::Evicted { existed: true });
    }

    #[test]
    fn a_client_past_the_connection_cap_gets_a_typed_refusal() {
        let limits = Limits { max_connections: 2, idle_timeout: IDLE_TIMEOUT };
        let server = Server::bind_with("127.0.0.1:0", RspService::new(ServiceConfig::default()), limits).unwrap();
        let mut first = Client::connect(server.addr()).unwrap();
        let mut second = Client::connect(server.addr()).unwrap();
        first.stats().unwrap();
        second.stats().unwrap();
        let mut third = Client::connect(server.addr()).unwrap();
        let refused = third.stats().unwrap_err();
        assert_eq!(refused, ClientError::Server(ServerError::TooManyConnections { limit: 2 }));
        // The refused connection is closed; the admitted ones keep serving.
        assert!(matches!(third.stats(), Err(ClientError::Wire(_))));
        first.stats().unwrap();
        // A slot freed by a disconnect admits the next client.
        drop(second);
        let open_conns = || server.shared.conns.lock().unwrap().len();
        wait_until("the closed connection left its slot", || open_conns() == 1);
        Client::connect(server.addr()).unwrap().stats().unwrap();
    }

    #[test]
    fn a_poisoned_connection_map_is_recovered() {
        let mut server = Server::bind("127.0.0.1:0", RspService::new(ServiceConfig::default())).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = server.shared.conns.lock().unwrap();
                panic!("poison the connection map");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(server.shared.conns.is_poisoned());
        // The accept loop still admits and serves a new client.
        let mut client = Client::connect(server.addr()).unwrap();
        let scene = client.load_scene(&ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)])).unwrap();
        assert_eq!(client.distance(scene, Point::new(0, 0), Point::new(8, 12)).unwrap(), 20);
        assert_eq!(lock(&server.shared.conns).len(), 1);
        // Shutdown closes that connection and joins every thread.
        server.shutdown();
        assert!(matches!(client.stats(), Err(ClientError::Wire(_))));
        assert!(lock(&server.conn_threads).is_empty());
    }

    #[test]
    fn an_idle_connection_is_released() {
        let limits = Limits { max_connections: MAX_CONNECTIONS, idle_timeout: Duration::from_millis(200) };
        let server = Server::bind_with("127.0.0.1:0", RspService::new(ServiceConfig::default()), limits).unwrap();
        let mut idle = Client::connect(server.addr()).unwrap();
        idle.stats().unwrap();
        // A connection that opens and never sends a byte is released too.
        let _silent = TcpStream::connect(server.addr()).unwrap();
        let open_conns = || server.shared.conns.lock().unwrap().len();
        wait_until("both idle connections were closed", || open_conns() == 0);
        assert!(matches!(idle.stats(), Err(ClientError::Wire(_))), "the server closed the idle connection");
        // A connection that keeps talking is not idle.
        let mut busy = Client::connect(server.addr()).unwrap();
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            busy.stats().unwrap();
        }
    }

    #[test]
    fn closed_connections_release_their_socket_and_thread() {
        let server = Server::bind("127.0.0.1:0", RspService::new(ServiceConfig::default())).unwrap();
        for _ in 0..64 {
            let mut client = Client::connect(server.addr()).unwrap();
            client.stats().unwrap();
        }
        let open_conns = || server.shared.conns.lock().unwrap().len();
        wait_until("every closed connection dropped its stream clone", || open_conns() == 0);
        // Finished connection threads are pruned on each accept; a probe's
        // own thread and its predecessor's may still be running.
        wait_until("the 64 finished handles were pruned", || {
            Client::connect(server.addr()).unwrap().stats().unwrap();
            server.conn_threads.lock().unwrap().len() <= 2
        });
        // The server still answers on a fresh connection.
        let mut client = Client::connect(server.addr()).unwrap();
        let scene = client.load_scene(&ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)])).unwrap();
        assert_eq!(client.distance(scene, Point::new(0, 0), Point::new(8, 12)).unwrap(), 20);
        wait_until("only the live client's stream is held", || open_conns() == 1);
    }
}
