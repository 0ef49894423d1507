//! The region quadtree used for hierarchical spatial decomposition
//! (Section 4.1.1 of the paper, Figure 6).
//!
//! The tree is built by inserting *seed points* (important coordinates of
//! the city — e.g. main road segments) and splitting every region that
//! holds more than a configured maximum into four equal quadrants. Seed
//! points are rarely uniform, so the resulting tree is unbalanced, exactly
//! as the paper observes.
//!
//! Rules reference the decomposition in two ways (Section 4.1.1): by
//! **layer** (tree depth — layer 0 is the root covering the whole city) or
//! by an explicit **area of interest** (a bounding box). Both lookups are
//! supported here.

use crate::error::GeoError;
use crate::point::{BoundingBox, GeoPoint};
use serde::{Deserialize, Serialize};

/// Identifier of a region within the quadtree. Stable across lookups for
/// the lifetime of the tree; node ids index into the internal arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// Construction parameters for [`RegionQuadtree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadtreeConfig {
    /// Maximum number of seed points a region may hold before splitting.
    pub max_points_per_region: usize,
    /// Hard cap on tree depth to bound degenerate inputs (duplicated seed
    /// points would otherwise split forever).
    pub max_depth: u8,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig { max_points_per_region: 8, max_depth: 10 }
    }
}

/// One region (node) of the quadtree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// This region's id.
    pub id: RegionId,
    /// Spatial extent.
    pub bbox: BoundingBox,
    /// Tree depth; the root is layer 0.
    pub layer: u8,
    /// Parent region, `None` for the root.
    pub parent: Option<RegionId>,
    /// Child regions (`[SW, SE, NW, NE]`), empty for leaves.
    pub children: Vec<RegionId>,
    /// Number of seed points that fell in this region during construction.
    pub seed_count: usize,
}

impl Region {
    /// Whether this region is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An unbalanced region quadtree over a geographic bounding box.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionQuadtree {
    nodes: Vec<Region>,
    root_bbox: BoundingBox,
    config: QuadtreeConfig,
    max_layer: u8,
}

impl RegionQuadtree {
    /// Builds the quadtree from seed points.
    ///
    /// Points outside `bbox` are rejected with [`GeoError::OutOfBounds`];
    /// the paper's seed points (main road segments) are all within the city
    /// extent by construction.
    pub fn build(
        bbox: BoundingBox,
        seeds: &[GeoPoint],
        config: QuadtreeConfig,
    ) -> Result<Self, GeoError> {
        if config.max_points_per_region == 0 {
            return Err(GeoError::InvalidQuadtreeConfig {
                reason: "max_points_per_region must be at least 1".into(),
            });
        }
        if config.max_depth == 0 {
            return Err(GeoError::InvalidQuadtreeConfig {
                reason: "max_depth must be at least 1".into(),
            });
        }
        for p in seeds {
            if !bbox.contains_inclusive(p) {
                return Err(GeoError::OutOfBounds { lat: p.lat, lon: p.lon });
            }
        }

        let mut tree = RegionQuadtree {
            nodes: vec![Region {
                id: RegionId(0),
                bbox,
                layer: 0,
                parent: None,
                children: Vec::new(),
                seed_count: seeds.len(),
            }],
            root_bbox: bbox,
            config,
            max_layer: 0,
        };

        // Recursive splitting, managed with an explicit stack of
        // (node, points-in-node) to avoid deep recursion.
        let mut stack: Vec<(RegionId, Vec<GeoPoint>)> = vec![(RegionId(0), seeds.to_vec())];
        while let Some((id, pts)) = stack.pop() {
            let (layer, bbox) = {
                let n = &tree.nodes[id.0 as usize];
                (n.layer, n.bbox)
            };
            if pts.len() <= config.max_points_per_region || layer >= config.max_depth {
                continue;
            }
            let quads = bbox.quadrants();
            let mut buckets: [Vec<GeoPoint>; 4] = Default::default();
            for p in pts {
                // contains() is half-open so interior points land in exactly
                // one quadrant; points on the outer north/east edge of the
                // root are assigned to the nearest quadrant.
                let mut placed = false;
                for (i, q) in quads.iter().enumerate() {
                    if q.contains(&p) {
                        buckets[i].push(p);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    let i = usize::from(p.lat >= bbox.center().lat) * 2
                        + usize::from(p.lon >= bbox.center().lon);
                    buckets[i].push(p);
                }
            }
            for (i, q) in quads.iter().enumerate() {
                let child_id = RegionId(tree.nodes.len() as u32);
                tree.nodes.push(Region {
                    id: child_id,
                    bbox: *q,
                    layer: layer + 1,
                    parent: Some(id),
                    children: Vec::new(),
                    seed_count: buckets[i].len(),
                });
                tree.nodes[id.0 as usize].children.push(child_id);
                tree.max_layer = tree.max_layer.max(layer + 1);
                stack.push((child_id, std::mem::take(&mut buckets[i])));
            }
        }
        Ok(tree)
    }

    /// Bounding box covered by the tree.
    pub fn bbox(&self) -> BoundingBox {
        self.root_bbox
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> QuadtreeConfig {
        self.config
    }

    /// Deepest layer present in the tree.
    pub fn max_layer(&self) -> u8 {
        self.max_layer
    }

    /// Total number of regions (nodes) in the tree.
    pub fn region_count(&self) -> usize {
        self.nodes.len()
    }

    /// Looks up a region by id.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.nodes.get(id.0 as usize)
    }

    /// All leaf regions.
    pub fn leaves(&self) -> Vec<&Region> {
        self.nodes.iter().filter(|n| n.is_leaf()).collect()
    }

    /// The leaf region containing the point, or `None` if the point is
    /// outside the tree's extent.
    pub fn locate_leaf(&self, p: &GeoPoint) -> Option<&Region> {
        if !self.root_bbox.contains_inclusive(p) {
            return None;
        }
        let mut node = &self.nodes[0];
        'descend: while !node.is_leaf() {
            for &c in &node.children {
                let child = &self.nodes[c.0 as usize];
                if child.bbox.contains(p) || (child.bbox.contains_inclusive(p) && {
                    // Outer edge of the root: accept inclusive containment
                    // in the last (NE-most) matching child.
                    node.children.iter().all(|&o| {
                        o == c || !self.nodes[o.0 as usize].bbox.contains(p)
                    })
                }) {
                    node = child;
                    continue 'descend;
                }
            }
            // Numerically should not happen: quadrants tile the parent.
            return Some(node);
        }
        Some(node)
    }

    /// The region containing the point at the given layer. If the tree is
    /// shallower than `layer` at the point's location, the deepest
    /// enclosing region (a leaf) is returned — rules monitoring layer `k`
    /// treat a shallow leaf as its own descendant, matching the paper's
    /// hierarchical grouping (Section 4.2.2).
    pub fn locate_at_layer(&self, p: &GeoPoint, layer: u8) -> Option<&Region> {
        let leaf = self.locate_leaf(p)?;
        if leaf.layer <= layer {
            return Some(leaf);
        }
        let mut node = leaf;
        while node.layer > layer {
            let parent = node.parent.expect("non-root nodes have parents");
            node = &self.nodes[parent.0 as usize];
        }
        Some(node)
    }

    /// The regions containing the point, from the leaf up to the root (at
    /// most [`Self::max_layer`] + 1 of them); none outside the extent.
    pub fn leaf_to_root(&self, p: &GeoPoint) -> impl Iterator<Item = &Region> {
        std::iter::successors(self.locate_leaf(p), |r| {
            r.parent.map(|parent| &self.nodes[parent.0 as usize])
        })
    }

    /// The chain of regions containing the point, from the root (layer 0)
    /// down to the leaf. This is what the AreaTracker bolt attaches to each
    /// bus trace (Section 4.3.2).
    pub fn locate_all_layers(&self, p: &GeoPoint) -> Vec<&Region> {
        let mut chain = Vec::with_capacity(usize::from(self.max_layer) + 1);
        chain.extend(self.leaf_to_root(p));
        chain.reverse();
        chain
    }

    /// All leaf regions intersecting an explicit area of interest.
    pub fn leaves_in_area(&self, area: &BoundingBox) -> Vec<&Region> {
        let mut out = Vec::new();
        let mut stack = vec![RegionId(0)];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id.0 as usize];
            if !node.bbox.intersects(area) {
                continue;
            }
            if node.is_leaf() {
                out.push(node);
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        out
    }

    /// Iterates over all regions.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DUBLIN_BBOX;

    fn grid_seeds(n: usize) -> Vec<GeoPoint> {
        // n × n grid of seeds inside Dublin, denser towards the centre.
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let fi = (i as f64 + 0.5) / n as f64;
                let fj = (j as f64 + 0.5) / n as f64;
                // Square to pull seeds towards the SW (yields imbalance).
                let lat = DUBLIN_BBOX.min_lat
                    + fi * fi * (DUBLIN_BBOX.max_lat - DUBLIN_BBOX.min_lat);
                let lon = DUBLIN_BBOX.min_lon
                    + fj * fj * (DUBLIN_BBOX.max_lon - DUBLIN_BBOX.min_lon);
                pts.push(GeoPoint::new_unchecked(lat, lon));
            }
        }
        pts
    }

    #[test]
    fn build_splits_until_capacity() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(10),
            QuadtreeConfig { max_points_per_region: 4, max_depth: 12 },
        )
        .unwrap();
        for leaf in tree.leaves() {
            assert!(
                leaf.seed_count <= 4 || leaf.layer == 12,
                "leaf {:?} holds {} seeds at layer {}",
                leaf.id,
                leaf.seed_count,
                leaf.layer
            );
        }
    }

    #[test]
    fn unbalanced_seeds_make_unbalanced_tree() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(12),
            QuadtreeConfig { max_points_per_region: 4, max_depth: 12 },
        )
        .unwrap();
        let depths: Vec<u8> = tree.leaves().iter().map(|l| l.layer).collect();
        let min = depths.iter().min().unwrap();
        let max = depths.iter().max().unwrap();
        assert!(max > min, "skewed seeds should produce varying leaf depth");
    }

    #[test]
    fn every_point_maps_to_exactly_one_leaf() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(8),
            QuadtreeConfig::default(),
        )
        .unwrap();
        for p in grid_seeds(20) {
            let leaf = tree.locate_leaf(&p).expect("inside bbox");
            assert!(leaf.bbox.contains_inclusive(&p));
            assert!(leaf.is_leaf());
        }
    }

    #[test]
    fn locate_outside_returns_none() {
        let tree =
            RegionQuadtree::build(DUBLIN_BBOX, &grid_seeds(4), QuadtreeConfig::default()).unwrap();
        let p = GeoPoint::new_unchecked(54.0, -6.2);
        assert!(tree.locate_leaf(&p).is_none());
        assert!(tree.locate_at_layer(&p, 2).is_none());
    }

    #[test]
    fn layer_lookup_is_ancestor_of_leaf() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(10),
            QuadtreeConfig { max_points_per_region: 2, max_depth: 8 },
        )
        .unwrap();
        let p = GeoPoint::new_unchecked(53.30, -6.30);
        let leaf = tree.locate_leaf(&p).unwrap().id;
        for layer in 0..=tree.max_layer() {
            let r = tree.locate_at_layer(&p, layer).unwrap();
            assert!(r.layer <= layer || r.id == leaf);
            assert!(r.bbox.contains_inclusive(&p));
        }
        // Layer 0 is always the root.
        assert_eq!(tree.locate_at_layer(&p, 0).unwrap().id, RegionId(0));
    }

    #[test]
    fn locate_all_layers_is_root_to_leaf_chain() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(10),
            QuadtreeConfig { max_points_per_region: 2, max_depth: 8 },
        )
        .unwrap();
        let p = GeoPoint::new_unchecked(53.25, -6.40);
        let chain = tree.locate_all_layers(&p);
        assert!(!chain.is_empty());
        assert_eq!(chain[0].id, RegionId(0));
        assert!(chain.last().unwrap().is_leaf());
        for w in chain.windows(2) {
            assert_eq!(w[1].parent, Some(w[0].id));
            assert_eq!(w[1].layer, w[0].layer + 1);
        }
        // The walk is the same chain, leaf first; nothing outside the city.
        let walk: Vec<RegionId> = tree.leaf_to_root(&p).map(|r| r.id).collect();
        assert!(walk.iter().eq(chain.iter().rev().map(|r| &r.id)));
        assert_eq!(tree.leaf_to_root(&GeoPoint::new_unchecked(0.0, 0.0)).count(), 0);
    }

    #[test]
    fn leaves_in_area_only_returns_intersecting() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(10),
            QuadtreeConfig { max_points_per_region: 2, max_depth: 8 },
        )
        .unwrap();
        let area = BoundingBox::new(53.30, -6.32, 53.36, -6.24).unwrap();
        let leaves = tree.leaves_in_area(&area);
        assert!(!leaves.is_empty());
        for l in &leaves {
            assert!(l.bbox.intersects(&area));
        }
        // The union of matching leaves covers the centre of the area.
        let c = area.center();
        assert!(leaves.iter().any(|l| l.bbox.contains_inclusive(&c)));
    }

    #[test]
    fn seed_outside_bbox_is_rejected() {
        let bad = vec![GeoPoint::new_unchecked(10.0, 10.0)];
        let err = RegionQuadtree::build(DUBLIN_BBOX, &bad, QuadtreeConfig::default());
        assert!(matches!(err, Err(GeoError::OutOfBounds { .. })));
    }

    #[test]
    fn zero_capacity_config_rejected() {
        let err = RegionQuadtree::build(
            DUBLIN_BBOX,
            &[],
            QuadtreeConfig { max_points_per_region: 0, max_depth: 4 },
        );
        assert!(matches!(err, Err(GeoError::InvalidQuadtreeConfig { .. })));
    }

    #[test]
    fn duplicate_seeds_bounded_by_max_depth() {
        // 100 identical points can never satisfy max_points_per_region=4;
        // the max_depth cap must stop the splitting.
        let p = GeoPoint::new_unchecked(53.33, -6.26);
        let seeds = vec![p; 100];
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &seeds,
            QuadtreeConfig { max_points_per_region: 4, max_depth: 5 },
        )
        .unwrap();
        assert_eq!(tree.max_layer(), 5);
        let leaf = tree.locate_leaf(&p).unwrap();
        assert_eq!(leaf.seed_count, 100);
    }

    #[test]
    fn children_partition_parent_seed_counts() {
        let tree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &grid_seeds(10),
            QuadtreeConfig { max_points_per_region: 4, max_depth: 10 },
        )
        .unwrap();
        for r in tree.iter() {
            if !r.is_leaf() {
                let sum: usize = r
                    .children
                    .iter()
                    .map(|&c| tree.region(c).unwrap().seed_count)
                    .sum();
                assert_eq!(sum, r.seed_count, "region {:?}", r.id);
            }
        }
    }
}
