//! Problem instances: a rectilinearly convex container `P` holding `n`
//! pairwise-disjoint rectangular obstacles (Section 2 of the paper).

use rsp_geom::{DisjointnessViolation, ObstacleSet, Point, Rect, StairRegion};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A problem instance.  The container is stored as a [`StairRegion`]; in the
/// common benchmarks it is a rectangle, but any rectilinearly convex polygon
/// with a clear boundary is accepted.
/// The obstacle set is held behind an [`Arc`] so session layers (the
/// `Router`) can hand the same allocation to the `PathLengthOracle` instead
/// of cloning all `n` rectangles on every session build.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Instance {
    obstacles: Arc<ObstacleSet>,
    container: StairRegion,
}

/// Problems detected by [`Instance::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// An obstacle has zero width or height (see [`Rect::is_degenerate`]).
    DegenerateObstacle(usize),
    /// Two obstacles overlap (their interiors intersect); carries the
    /// offending pair of ids and rectangles.
    OverlappingObstacles(DisjointnessViolation),
    /// An obstacle is not contained in the container.
    ObstacleOutsideContainer(usize),
    /// The container is not rectilinearly convex.
    ContainerNotConvex,
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::DegenerateObstacle(i) => write!(f, "obstacle {i} has zero width or height"),
            InstanceError::OverlappingObstacles(v) => write!(f, "{v}"),
            InstanceError::ObstacleOutsideContainer(i) => {
                write!(f, "obstacle {i} is not contained in the container")
            }
            InstanceError::ContainerNotConvex => write!(f, "the container is not rectilinearly convex"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<DisjointnessViolation> for InstanceError {
    fn from(v: DisjointnessViolation) -> Self {
        InstanceError::OverlappingObstacles(v)
    }
}

impl Instance {
    /// Build an instance with an explicit container.
    pub fn new(obstacles: ObstacleSet, container: StairRegion) -> Self {
        Instance { obstacles: Arc::new(obstacles), container }
    }

    /// Build an instance whose container is the bounding box of the obstacles
    /// expanded by `margin` (the common case in the paper's experiments where
    /// `P` is just "large enough").
    pub fn with_margin(obstacles: ObstacleSet, margin: i64) -> Self {
        let bbox = obstacles.bbox().unwrap_or(Rect::new(0, 0, 1, 1)).expand(margin.max(1));
        Instance { container: StairRegion::from_rect(bbox), obstacles: Arc::new(obstacles) }
    }

    /// The obstacle set `R`.
    pub fn obstacles(&self) -> &ObstacleSet {
        self.obstacles.as_ref()
    }

    /// A shared handle to the obstacle set (no copy; the `Router` passes
    /// this straight into `PathLengthOracle::from_apsp`).
    pub fn obstacles_arc(&self) -> Arc<ObstacleSet> {
        Arc::clone(&self.obstacles)
    }

    /// The container `P`.
    pub fn container(&self) -> &StairRegion {
        &self.container
    }

    /// Number of obstacles `n`.
    pub fn n(&self) -> usize {
        self.obstacles.len()
    }

    /// The `4n` obstacle vertices `V_R`.
    pub fn vertices(&self) -> Vec<Point> {
        self.obstacles.vertices()
    }

    /// Full validation of the paper's input assumptions (except general
    /// position, which the algorithms do not strictly require).
    pub fn validate(&self) -> Result<(), InstanceError> {
        if let Some(i) = self.obstacles.iter().position(Rect::is_degenerate) {
            return Err(InstanceError::DegenerateObstacle(i));
        }
        self.obstacles.validate_disjoint()?;
        if !self.container.is_rectilinearly_convex() {
            return Err(InstanceError::ContainerNotConvex);
        }
        for (i, r) in self.obstacles.iter().enumerate() {
            if !self.container.contains_rect(r) {
                return Err(InstanceError::ObstacleOutsideContainer(i));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_margin_contains_everything() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 2, 2), Rect::new(5, 5, 9, 7)]);
        let inst = Instance::with_margin(obs, 3);
        assert!(inst.validate().is_ok());
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.vertices().len(), 8);
        assert!(inst.container().contains(Point::new(-3, -3)));
    }

    #[test]
    fn validation_catches_overlap() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 4, 4), Rect::new(2, 2, 6, 6)]);
        let inst = Instance::with_margin(obs, 2);
        match inst.validate() {
            Err(InstanceError::OverlappingObstacles(v)) => {
                assert_eq!((v.first, v.second), (0, 1));
                assert_eq!(v.first_rect, Rect::new(0, 0, 4, 4));
                assert!(v.to_string().contains("obstacles 0 and 1"));
            }
            other => panic!("expected overlap error, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_escaping_obstacle() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 2, 2), Rect::new(50, 50, 60, 60)]);
        let container = StairRegion::from_rect(Rect::new(-5, -5, 10, 10));
        let inst = Instance::new(obs, container);
        assert_eq!(inst.validate(), Err(InstanceError::ObstacleOutsideContainer(1)));
    }

    #[test]
    fn validation_catches_degenerate_obstacle() {
        // Struct literals (like serde) bypass `Rect::new`'s assert.
        let flat = Rect { xmin: 5, ymin: 0, xmax: 5, ymax: 4 };
        let inst = Instance::with_margin(ObstacleSet::new(vec![Rect::new(0, 0, 2, 2), flat]), 2);
        assert_eq!(inst.validate(), Err(InstanceError::DegenerateObstacle(1)));
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = Instance::with_margin(ObstacleSet::empty(), 10);
        assert!(inst.validate().is_ok());
        assert_eq!(inst.n(), 0);
    }
}
