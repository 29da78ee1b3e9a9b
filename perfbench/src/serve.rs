//! The untraced run: the real `rsp-server` stack over loopback TCP, driven
//! closed-loop by one client thread per connection.

use crate::workload::{Load, Scenario};
use rsp_server::{Client, Request, Response, RspService, Server};
use std::time::{Duration, Instant};

/// An op slower than this counts as failed (it would have timed out).
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// A sampled op: its index in the connection's stream and its responses.
pub type Sample = (usize, Vec<Response>);

/// What one connection recorded during the timed phase.
#[derive(Default)]
pub struct ConnLog {
    /// Latency of every op that completed without error, in ns.
    pub latency_ns: Vec<u64>,
    /// Completion time of those ops, in ns since the phase start.
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub samples: Vec<Sample>,
    /// The stream ran out of ops before the phase ended.
    pub exhausted: bool,
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    pub warmup_s: f64,
    pub conns: Vec<ConnLog>,
    pub wall_s: f64,
    pub resident_bytes: u64,
}

/// `LoadScene`, then the first answer on the new scene; returns seconds.
pub fn timed_load(client: &mut Client, load: &Load) -> Result<f64, String> {
    let t0 = Instant::now();
    match client.call(&load.load).map_err(|e| e.to_string())? {
        Response::SceneLoaded { scene, .. } if scene == load.scene => {}
        other => return Err(format!("LoadScene answered {other:?}")),
    }
    client.call(&load.first).map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64())
}

pub fn evict(client: &mut Client, load: &Load) -> Result<(), String> {
    client.call(&Request::Evict { scene: load.scene }).map(|_| ()).map_err(|e| e.to_string())
}

pub fn run(sc: &Scenario, seconds: f64) -> Result<Measured, String> {
    let mut server = Server::bind("127.0.0.1:0", RspService::new(sc.config.clone())).map_err(|e| e.to_string())?;
    let mut clients: Vec<Client> = (0..sc.streams.len())
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let setup = &mut clients[0];
    let warmup_s = timed_load(setup, &sc.warmup)?;
    evict(setup, &sc.warmup)?;
    let mut setup_s = Vec::with_capacity(sc.loads.len());
    for (k, load) in sc.loads.iter().enumerate() {
        setup_s.push(timed_load(setup, load)?);
        if k >= sc.resident {
            evict(setup, load)?;
        }
    }
    for (client, stream) in clients.iter_mut().zip(&sc.streams) {
        for i in 0..sc.warm_ops {
            for request in &stream.get(i).expect("streams hold their warm-up ops").requests {
                client.call(request).map_err(|e| format!("warm-up op: {e}"))?;
            }
        }
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&sc.streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let Some(op) = stream.get(i) else {
                            log.exhausted = true;
                            break;
                        };
                        let keep = i.is_multiple_of(sc.sample_every);
                        let mut responses = Vec::new();
                        let mut error = None;
                        let t0 = Instant::now();
                        for request in &op.requests {
                            match client.call(request) {
                                Ok(r) if keep => responses.push(r),
                                Ok(_) => {}
                                Err(e) => {
                                    error = Some(e);
                                    break;
                                }
                            }
                        }
                        let t1 = Instant::now();
                        log.attempted += 1;
                        let latency = t1 - t0;
                        match error {
                            Some(e) => {
                                log.failed += 1;
                                if log.errors.len() < 4 {
                                    log.errors.push(format!("op {i}: {e}"));
                                }
                                if matches!(e, rsp_server::ClientError::Wire(_)) {
                                    break; // the connection is gone
                                }
                            }
                            None if latency > OP_TIMEOUT => log.failed += 1,
                            None => {
                                log.latency_ns.push(latency.as_nanos() as u64);
                                log.done_ns.push((t1 - start).as_nanos() as u64);
                                if keep {
                                    log.samples.push((i, responses));
                                }
                            }
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = conns.iter().filter_map(|c| c.done_ns.last()).max().map_or(seconds, |&ns| ns as f64 * 1e-9);
    let resident_bytes = clients[0].stats().map_err(|e| e.to_string())?.total_resident_bytes();
    drop(clients);
    server.shutdown();
    Ok(Measured { setup_s, warmup_s, conns, wall_s, resident_bytes })
}
