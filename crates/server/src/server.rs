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

use crate::protocol::{read_message, write_message, Request, Response, ServerError, WireError};
use crate::service::RspService;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct ServerShared {
    service: RspService,
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
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared =
            Arc::new(ServerShared { service, shutdown: AtomicBool::new(false), conns: Mutex::new(HashMap::new()) });
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
        for (_, stream) in self.shared.conns.lock().expect("server conns poisoned").drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> =
            self.conn_threads.lock().expect("server threads poisoned").drain(..).collect();
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
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("server conns poisoned").insert(id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let spawned =
            std::thread::Builder::new().name("rsp-conn".into()).spawn(move || serve_conn(id, stream, &conn_shared));
        let mut threads = threads.lock().expect("server threads poisoned");
        threads.retain(|handle| !handle.is_finished());
        if let Ok(handle) = spawned {
            threads.push(handle);
        }
    }
}

/// One connection: a strict request/response loop.  Ends (closing the
/// connection and dropping its entry in `conns`) on peer disconnect, any
/// framing error, or server shutdown.
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
    shared.conns.lock().expect("server conns poisoned").remove(&id);
}

/// Run a request handler, turning a panic into a [`ServerError::Internal`]
/// reply.  Without this a panic would unwind the connection thread past the
/// `conns` cleanup, and the client would wait on an open socket until the
/// server shut down.  Asserting unwind safety is sound: the service's
/// shared state is behind locks that either recover their guard (the
/// router's tree lock and row cache) or are never held across a call that
/// can panic.
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
    use crate::{Client, ServiceConfig};
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
