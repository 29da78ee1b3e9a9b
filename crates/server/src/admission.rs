//! Admission: count one point query and answer it on the caller's thread.
//!
//! Atallah–Chen answer a vertex pair in `O(1)` and an arbitrary point pair
//! in `O(log n)`, so handing a single query to another thread costs more
//! than answering it.  [`Admission::distance`] therefore bumps a counter and
//! calls [`Router::distance`] right where the request arrived: each point
//! query is its own dispatch, so [`QueueStats`] always reads
//! `batches == queries` and `largest_batch <= 1`.  Pre-batched queries never
//! come through here; they go straight to [`Router::distances`].
//!
//! No worker thread, queue or shutdown state is left: no serving path
//! produces [`ServerError::ShuttingDown`] any more, and there is no
//! shard-wide thread for a panic to kill.

use crate::protocol::{QueueStats, ServerError};
use rsp_core::router::Router;
use rsp_geom::{Dist, Point};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

/// One shard's point-query admission: a counter in front of
/// [`Router::distance`].
#[derive(Default)]
pub struct Admission {
    queries: AtomicU64,
}

impl Admission {
    /// Answer one point query on the calling thread: exactly what a direct
    /// [`Router::distance`] call returns, with its typed error mirrored.
    pub fn distance(&self, router: &Router, a: Point, b: Point) -> Result<Dist, ServerError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        router.distance(a, b).map_err(ServerError::from)
    }

    /// [`Admission::distance`] for callers that take the answer from a
    /// channel; it is already in the returned receiver when this returns.
    pub fn submit(&self, router: Arc<Router>, a: Point, b: Point) -> Receiver<Result<Dist, ServerError>> {
        let (tx, rx) = channel();
        let _ = tx.send(self.distance(&router, a, b));
        rx
    }

    /// Counter snapshot; every query is its own one-query dispatch.
    pub fn stats(&self) -> QueueStats {
        let queries = self.queries.load(Ordering::Relaxed);
        QueueStats { queries, batches: queries, largest_batch: queries.min(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::{ObstacleSet, Rect};
    use rsp_workload::{query_pairs, uniform_disjoint};

    fn answer(queue: &Admission, router: &Arc<Router>, a: Point, b: Point) -> Result<Dist, ServerError> {
        let rx = queue.submit(Arc::clone(router), a, b);
        let result = rx.try_recv().expect("the answer is in the channel when submit returns");
        assert!(rx.try_recv().is_err(), "exactly one answer per submit");
        result
    }

    #[test]
    fn answers_match_per_call_distance() {
        let w = uniform_disjoint(8, 17);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Admission::default();
        let mut pairs = query_pairs(&w.obstacles, 24, true, 3);
        pairs.extend(query_pairs(&w.obstacles, 24, false, 4));
        for &(a, b) in &pairs {
            assert_eq!(answer(&queue, &router, a, b).unwrap(), router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        assert_eq!(queue.stats(), QueueStats { queries: 48, batches: 48, largest_batch: 1 });
    }

    #[test]
    fn a_bad_query_is_typed_and_the_next_one_answers() {
        let obstacles = ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)]);
        let router = Arc::new(Router::new(obstacles).unwrap());
        let queue = Admission::default();
        let bad = answer(&queue, &router, Point::new(3, 5), Point::new(0, 0));
        assert!(matches!(bad.unwrap_err(), ServerError::PointInsideObstacle { obstacle: 0, .. }));
        let good = answer(&queue, &router, Point::new(0, 0), Point::new(8, 12));
        assert_eq!(good.unwrap(), router.distance(Point::new(0, 0), Point::new(8, 12)).unwrap());
        assert_eq!(queue.stats().queries, 2);
    }

    #[test]
    fn concurrent_submitters_all_get_per_call_answers() {
        let w = uniform_disjoint(8, 17);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Admission::default();
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let (queue, router, obstacles) = (&queue, &router, &w.obstacles);
                scope.spawn(move || {
                    for (a, b) in query_pairs(obstacles, 4, thread % 2 == 0, 100 + thread) {
                        assert_eq!(
                            answer(queue, router, a, b).unwrap(),
                            router.distance(a, b).unwrap(),
                            "{a:?} -> {b:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(queue.stats().queries, 32);
    }
}
