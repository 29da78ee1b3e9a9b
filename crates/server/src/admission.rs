//! The admission queue: coalesce single point queries into `Router` batches.
//!
//! Inference servers live on this shape — individual requests arrive
//! asynchronously, but the backend is far more efficient per query when
//! driven in batches (here: one [`Router::distances`] call amortises the
//! batch machinery and lets vertex pairs stream through the `O(1)` matrix
//! fast path back-to-back).  The [`Coalescer`] batches by *group commit*,
//! the way a database log batches its flushes: a dedicated worker sleeps
//! until a query is pending, takes everything pending (at most
//! `MAX_BATCH`), runs it at once and fans each answer back to its caller
//! over a channel.  Queries that arrive while it runs form the next batch.
//! No timer holds a query back: an idle queue dispatches at once, and a
//! busy one coalesces exactly as much as its execution time lets pile up.
//!
//! Failure isolation: [`Router::distances`] fails the whole batch when any
//! single query is invalid (e.g. an endpoint strictly inside an obstacle).
//! One bad query must not poison its batch-mates, so on batch failure the
//! worker falls back to per-query [`Router::distance`] calls — every caller
//! still gets exactly the result a direct call would have produced.

use crate::protocol::{QueueStats, ServerError};
use rsp_core::router::Router;
use rsp_geom::{Dist, Point};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The most queries one dispatched batch holds; a longer backlog is served
/// in several consecutive batches.
const MAX_BATCH: usize = 256;

struct Pending {
    router: Arc<Router>,
    pair: (Point, Point),
    tx: Sender<Result<Dist, ServerError>>,
}

struct State {
    pending: Vec<Pending>,
    shutdown: bool,
    stats: QueueStats,
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
}

/// A batching admission queue in front of one shard's routers.  Dropping the
/// coalescer drains outstanding queries, then stops its worker thread.
pub struct Coalescer {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Default for Coalescer {
    fn default() -> Self {
        Self::new()
    }
}

impl Coalescer {
    /// A group-commit queue with its worker thread already running.
    pub fn new() -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { pending: Vec::new(), shutdown: false, stats: QueueStats::default() }),
            arrived: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("rsp-coalescer".into())
            .spawn(move || run_worker(&worker_shared))
            .expect("spawn coalescer worker");
        Coalescer { shared, worker: Some(worker) }
    }

    /// Admit one point query against `router`.  Returns the channel on which
    /// exactly one result will arrive; blocking on it yields what a direct
    /// [`Router::distance`] call would return.
    pub fn submit(&self, router: Arc<Router>, a: Point, b: Point) -> Receiver<Result<Dist, ServerError>> {
        let (tx, rx) = channel();
        let mut state = self.shared.state.lock().expect("coalescer state poisoned");
        if state.shutdown {
            let _ = tx.send(Err(ServerError::ShuttingDown));
            return rx;
        }
        state.stats.queries += 1;
        state.pending.push(Pending { router, pair: (a, b), tx });
        drop(state);
        self.shared.arrived.notify_one();
        rx
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        self.shared.state.lock().expect("coalescer state poisoned").stats
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.shared.state.lock().expect("coalescer state poisoned").shutdown = true;
        self.shared.arrived.notify_one();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Group commit: sleep until something is pending (or shutdown finds the
/// queue empty), take up to `MAX_BATCH` pending queries, run them, repeat.
fn run_worker(shared: &Shared) {
    let mut state = shared.state.lock().expect("coalescer state poisoned");
    loop {
        state = shared
            .arrived
            .wait_while(state, |s| s.pending.is_empty() && !s.shutdown)
            .expect("coalescer state poisoned");
        if state.pending.is_empty() {
            return;
        }
        let take = state.pending.len().min(MAX_BATCH);
        let batch: Vec<Pending> = state.pending.drain(..take).collect();
        state.stats.batches += 1;
        state.stats.largest_batch = state.stats.largest_batch.max(batch.len() as u64);
        drop(state);
        execute(batch);
        state = shared.state.lock().expect("coalescer state poisoned");
    }
}

/// Serve one dispatched batch: group by router (a batch may span scenes
/// sharing a shard), answer each group with one `distances` call, and fan
/// results back.  Send failures mean the caller gave up waiting; they are
/// ignored.
fn execute(batch: Vec<Pending>) {
    let mut groups: Vec<(Arc<Router>, Vec<usize>)> = Vec::new();
    for (idx, pending) in batch.iter().enumerate() {
        match groups.iter_mut().find(|(router, _)| Arc::ptr_eq(router, &pending.router)) {
            Some((_, members)) => members.push(idx),
            None => groups.push((Arc::clone(&pending.router), vec![idx])),
        }
    }
    for (router, members) in groups {
        let pairs: Vec<(Point, Point)> = members.iter().map(|&i| batch[i].pair).collect();
        match router.distances(&pairs) {
            Ok(lengths) => {
                for (&i, length) in members.iter().zip(lengths) {
                    let _ = batch[i].tx.send(Ok(length));
                }
            }
            // One invalid query fails a whole `distances` call; re-serve the
            // group per-query so only the culprit sees its typed error.
            Err(_) => {
                for &i in &members {
                    let (a, b) = batch[i].pair;
                    let _ = batch[i].tx.send(router.distance(a, b).map_err(ServerError::from));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::store::StoreKind;
    use rsp_geom::{ObstacleSet, Rect};
    use rsp_workload::{query_pairs, uniform_disjoint};
    use std::time::Duration;

    type Answer = Receiver<Result<Dist, ServerError>>;

    /// Occupy the worker in a slow first batch: the first query on a fresh
    /// n = 512 implicit router pays its skeleton build and a row sweep
    /// (tens of milliseconds even in release, against well under 1 ms to
    /// submit any backlog below).  Returns once the worker has taken it as
    /// batch 1, so everything submitted while it runs queues up behind it.
    fn busy_worker(queue: &Coalescer) -> Answer {
        let w = uniform_disjoint(512, 5);
        let implicit = StoreKind::Implicit { budget_bytes: 1 << 20 };
        let router = Arc::new(Router::builder(w.obstacles.clone()).store(implicit).build().unwrap());
        let (a, b) = query_pairs(&w.obstacles, 1, true, 1)[0];
        let blocker = queue.submit(router, a, b);
        while queue.stats().batches == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        blocker
    }

    fn answer(rx: &Answer) -> Result<Dist, ServerError> {
        rx.recv_timeout(Duration::from_secs(120)).expect("one answer per submit")
    }

    #[test]
    fn coalesced_answers_match_per_call_distance() {
        let w = uniform_disjoint(8, 17);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new();
        let mut pairs = query_pairs(&w.obstacles, 24, true, 3);
        pairs.extend(query_pairs(&w.obstacles, 24, false, 4));
        let blocker = busy_worker(&queue);
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        assert!(answer(&blocker).is_ok());
        for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
            assert_eq!(answer(rx).unwrap(), router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
            assert!(rx.try_recv().is_err(), "exactly one answer per submit");
        }
        let stats = queue.stats();
        assert_eq!(stats.queries, 49);
        assert_eq!(stats.batches, 2, "the backlog left as one group commit: {stats:?}");
        assert_eq!(stats.largest_batch, 48, "{stats:?}");
    }

    #[test]
    fn bad_query_fails_alone_not_its_batchmates() {
        let obstacles = ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)]);
        let router = Arc::new(Router::new(obstacles).unwrap());
        let queue = Coalescer::new();
        let blocker = busy_worker(&queue);
        let good_a = queue.submit(Arc::clone(&router), Point::new(0, 0), Point::new(8, 12));
        let bad = queue.submit(Arc::clone(&router), Point::new(3, 5), Point::new(0, 0));
        let good_b = queue.submit(Arc::clone(&router), Point::new(2, 2), Point::new(6, 10));
        assert!(answer(&blocker).is_ok());
        assert_eq!(answer(&good_a).unwrap(), router.distance(Point::new(0, 0), Point::new(8, 12)).unwrap());
        assert!(matches!(answer(&bad).unwrap_err(), ServerError::PointInsideObstacle { obstacle: 0, .. }));
        assert_eq!(answer(&good_b).unwrap(), 12);
        let stats = queue.stats();
        assert_eq!((stats.batches, stats.largest_batch), (2, 3), "all three shared one batch: {stats:?}");
    }

    #[test]
    fn a_backlog_longer_than_the_cap_splits_into_capped_batches() {
        let w = uniform_disjoint(4, 9);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new();
        let pairs = query_pairs(&w.obstacles, 2 * MAX_BATCH + 100, true, 5);
        let blocker = busy_worker(&queue);
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        assert!(answer(&blocker).is_ok());
        for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
            assert_eq!(answer(rx).unwrap(), router.distance(a, b).unwrap());
        }
        let stats = queue.stats();
        assert!(stats.largest_batch <= MAX_BATCH as u64, "{stats:?}");
        assert!(stats.batches >= 3, "{stats:?}");
    }

    #[test]
    fn concurrent_submitters_behind_a_busy_worker_coalesce() {
        let w = uniform_disjoint(8, 17);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new();
        let blocker = busy_worker(&queue);
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let (queue, router, obstacles) = (&queue, &router, &w.obstacles);
                scope.spawn(move || {
                    let pairs = query_pairs(obstacles, 4, thread % 2 == 0, 100 + thread);
                    let receivers: Vec<_> =
                        pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(router), a, b)).collect();
                    for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
                        assert_eq!(answer(rx).unwrap(), router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
                    }
                });
            }
        });
        assert!(answer(&blocker).is_ok());
        let stats = queue.stats();
        assert_eq!(stats.queries, 33);
        assert!(stats.largest_batch > 1, "8 submitters behind a busy worker coalesced: {stats:?}");
    }

    #[test]
    fn coalesced_batch_on_implicit_store_sweeps_each_row_once() {
        let w = uniform_disjoint(8, 17);
        let verts = w.obstacles.vertices();
        let dim = verts.len();
        // A two-row budget: without planning, ten queries alternating
        // between rows 0 and 2 would thrash; the planner pins both rows
        // for the batch and sweeps each exactly once.
        let budget = 2 * dim * std::mem::size_of::<Dist>();
        let router = Arc::new(
            Router::builder(w.obstacles.clone()).store(StoreKind::Implicit { budget_bytes: budget }).build().unwrap(),
        );
        let dense = Router::new(w.obstacles.clone()).unwrap();
        // Ten vertex queries, both orientations, spanning two canonical
        // rows (0 and 2).
        let mut pairs = Vec::new();
        for t in (4..24).step_by(5) {
            pairs.push((verts[0], verts[t]));
            pairs.push((verts[t], verts[0]));
        }
        pairs.push((verts[5], verts[2]));
        pairs.push((verts[2], verts[5]));
        // Queued behind a busy worker, the whole set dispatches as exactly
        // one batch, deterministically.
        let queue = Coalescer::new();
        let blocker = busy_worker(&queue);
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        assert!(answer(&blocker).is_ok());
        for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
            assert_eq!(answer(rx).unwrap(), dense.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        assert_eq!(queue.stats().batches, 2, "one coalesced dispatch behind the blocker");
        let stats = router.memory_stats();
        assert_eq!(stats.row_misses, 2, "one sweep per distinct canonical row");
        assert_eq!(stats.pinned_bytes, 0, "batch pins released");
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let w = uniform_disjoint(4, 11);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new();
        let blocker = busy_worker(&queue);
        let pending: Vec<_> = query_pairs(&w.obstacles, 8, true, 6)
            .iter()
            .map(|&(a, b)| queue.submit(Arc::clone(&router), a, b))
            .collect();
        drop(queue);
        assert!(blocker.recv().unwrap().is_ok());
        for rx in pending {
            assert!(rx.recv().unwrap().is_ok(), "queued work drains on shutdown");
        }
    }
}
