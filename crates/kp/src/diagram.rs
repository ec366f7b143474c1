//! Persistence diagrams: multisets of (birth, death) pairs.

/// A 0-dimensional persistence diagram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PersistenceDiagram {
    /// `(birth, death)` pairs with `death ≥ birth`.
    pub points: Vec<(f32, f32)>,
}

impl PersistenceDiagram {
    /// Empty diagram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a point (debug-asserts `death ≥ birth`).
    pub fn push(&mut self, birth: f32, death: f32) {
        debug_assert!(death >= birth, "death {death} < birth {birth}");
        self.points.push((birth, death));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the diagram is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_points() {
        let mut d = PersistenceDiagram::new();
        d.push(0.1, 0.5);
        d.push(0.2, 0.2);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_diagram() {
        let d = PersistenceDiagram::new();
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn rejects_negative_persistence() {
        let mut d = PersistenceDiagram::new();
        d.push(0.5, 0.1);
    }
}
