//! A blocking TCP client for the rsp-server wire protocol.
//!
//! One [`Client`] owns one connection and drives the strict
//! request/response cycle; typed wrapper methods hide the enum plumbing so
//! calling the server reads like calling a local
//! [`Router`](rsp_core::router::Router).  Server-side failures surface as
//! [`ClientError::Server`] with the full typed evidence; transport and
//! codec failures as [`ClientError::Wire`]; a response of the wrong shape
//! (a server bug) as [`ClientError::UnexpectedResponse`].

use crate::protocol::{read_message, write_message, Request, Response, SceneId, ServerError, ServerStats, WireError};
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// The server answered with a typed error.
    Server(ServerError),
    /// The transport or codec failed.
    Wire(WireError),
    /// The server answered, but with a response variant that does not match
    /// the request (a protocol bug, not a user error).
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::UnexpectedResponse(got) => write!(f, "unexpected response: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server (e.g. the address from
    /// [`Server::addr`](crate::server::Server::addr)).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one request and read its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_message(&mut self.stream, request)?;
        let response: Response = read_message(&mut self.stream)?;
        if let Response::Error { error } = response {
            return Err(ClientError::Server(error));
        }
        Ok(response)
    }

    /// Load (or touch) a scene; returns its id for subsequent queries.
    pub fn load_scene(&mut self, obstacles: &ObstacleSet) -> Result<SceneId, ClientError> {
        match self.call(&Request::LoadScene { obstacles: obstacles.clone() })? {
            Response::SceneLoaded { scene, .. } => Ok(scene),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// One point-to-point length query (answered server-side by
    /// `Router::distance`).
    pub fn distance(&mut self, scene: SceneId, a: Point, b: Point) -> Result<Dist, ClientError> {
        match self.call(&Request::Distance { scene, a, b })? {
            Response::Distance { length } => Ok(length),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// A pre-batched distance query; the result is index-aligned.
    pub fn batch_distances(&mut self, scene: SceneId, pairs: &[(Point, Point)]) -> Result<Vec<Dist>, ClientError> {
        match self.call(&Request::BatchDistances { scene, pairs: pairs.to_vec() })? {
            Response::Distances { lengths } => Ok(lengths),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// One vertex-pair path report.
    pub fn path(&mut self, scene: SceneId, source: Point, target: Point) -> Result<RectiPath, ClientError> {
        match self.call(&Request::Path { scene, source, target })? {
            Response::Path { path } => Ok(path),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// A pre-batched set of vertex-pair path reports.
    pub fn batch_paths(&mut self, scene: SceneId, pairs: &[(Point, Point)]) -> Result<Vec<RectiPath>, ClientError> {
        match self.call(&Request::BatchPaths { scene, pairs: pairs.to_vec() })? {
            Response::Paths { paths } => Ok(paths),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Server statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Drop a scene's session server-side.
    pub fn evict(&mut self, scene: SceneId) -> Result<bool, ClientError> {
        match self.call(&Request::Evict { scene })? {
            Response::Evicted { existed } => Ok(existed),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}
