//! DENCLUE density-based clustering (Hinneburg & Keim, KDD'98), as applied
//! by the paper to noisy bus-stop reports (Section 4.1.2).
//!
//! The paper's procedure: place a 2-dimensional Gaussian with σ = 20 m at
//! every GPS location where a bus reported reaching a stop; sum the
//! Gaussians into a global density function; hill-climb each data point to
//! its local density maximum (its *density attractor*); and merge points
//! whose attractors lie close together into one cluster.
//!
//! This implementation works in a local planar projection (metres) around
//! the data's centroid, which is accurate at city scale, and uses a spatial
//! grid of cell size 4σ so each density/gradient evaluation only visits
//! nearby points (the Gaussian kernel is negligible beyond ~4σ).

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::error::GeoError;
use crate::point::GeoPoint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration for a DENCLUE run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenclueConfig {
    /// Gaussian kernel bandwidth σ in metres. The paper uses 20 m.
    pub sigma_m: f64,
    /// Attractors closer than this distance (metres) are merged into one
    /// cluster. A multiple of σ is customary; 2σ by default.
    pub merge_distance_m: f64,
    /// Hill-climbing step scale; the climb moves to the kernel-weighted
    /// mean of the neighbourhood (mean-shift), so this is an iteration cap.
    pub max_iterations: usize,
    /// Convergence threshold in metres: stop climbing when the move is
    /// smaller than this.
    pub convergence_m: f64,
    /// Minimum density (in kernel-sum units) an attractor needs for its
    /// points to be clustered; points attracted to lower-density maxima are
    /// labelled noise. Set to 0.0 to keep everything.
    pub min_density: f64,
}

impl Default for DenclueConfig {
    fn default() -> Self {
        DenclueConfig {
            sigma_m: 20.0,
            merge_distance_m: 40.0,
            max_iterations: 100,
            convergence_m: 0.05,
            min_density: 0.0,
        }
    }
}

/// One cluster produced by DENCLUE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    /// Cluster id, dense `0..n`.
    pub id: usize,
    /// Density attractor the members climbed to (projected back to WGS-84).
    pub attractor: GeoPoint,
    /// Density value at the attractor.
    pub density: f64,
    /// Indices into the input slice of the member points.
    pub members: Vec<usize>,
}

/// Result of a clustering run: clusters plus noise points.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// Clusters, ordered by descending member count.
    pub clusters: Vec<Cluster>,
    /// Indices of input points that were not assigned to any cluster.
    pub noise: Vec<usize>,
}

/// DENCLUE clustering engine.
#[derive(Debug, Clone)]
pub struct Denclue {
    config: DenclueConfig,
}

/// Planar projection of the inputs: metres east/north of the centroid.
struct Projection {
    lat0: f64,
    lon0: f64,
    m_per_deg_lat: f64,
    m_per_deg_lon: f64,
}

impl Projection {
    fn fit(points: &[GeoPoint]) -> Projection {
        let n = points.len() as f64;
        let lat0 = points.iter().map(|p| p.lat).sum::<f64>() / n;
        let lon0 = points.iter().map(|p| p.lon).sum::<f64>() / n;
        Projection {
            lat0,
            lon0,
            m_per_deg_lat: 111_320.0,
            m_per_deg_lon: 111_320.0 * lat0.to_radians().cos(),
        }
    }

    fn to_xy(&self, p: &GeoPoint) -> (f64, f64) {
        (
            (p.lon - self.lon0) * self.m_per_deg_lon,
            (p.lat - self.lat0) * self.m_per_deg_lat,
        )
    }

    fn to_geo(&self, x: f64, y: f64) -> GeoPoint {
        GeoPoint {
            lat: self.lat0 + y / self.m_per_deg_lat,
            lon: self.lon0 + x / self.m_per_deg_lon,
        }
    }
}

/// Hashes a grid cell with one multiply per coordinate, in place of
/// SipHash. A grid is only looked up, never iterated, so the hasher
/// decides no visiting order and no floating-point sum: positions crafted
/// to collide could slow a clustering run, not change its result.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_i64(i64::from(b));
        }
    }

    fn write_i64(&mut self, n: i64) {
        self.0 = (self.0.rotate_left(26) ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Uniform grid over projected points for O(1) neighbourhood queries.
struct Grid {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<usize>, BuildHasherDefault<CellHasher>>,
}

impl Grid {
    fn build(xy: &[(f64, f64)], cell: f64) -> Grid {
        let mut cells = HashMap::<_, Vec<usize>, _>::default();
        for (i, &(x, y)) in xy.iter().enumerate() {
            cells
                .entry(((x / cell).floor() as i64, (y / cell).floor() as i64))
                .or_default()
                .push(i);
        }
        Grid { cell, cells }
    }

    /// Indices of points in the 3×3 cell neighbourhood of (x, y): cells
    /// column by column, each cell's points in input order.
    fn neighbours(&self, x: f64, y: f64) -> impl Iterator<Item = usize> + '_ {
        let cx = (x / self.cell).floor() as i64;
        let cy = (y / self.cell).floor() as i64;
        (-1..=1)
            .flat_map(move |dx| (-1..=1).map(move |dy| (cx + dx, cy + dy)))
            .filter_map(|key| self.cells.get(&key))
            .flatten()
            .copied()
    }
}

impl Denclue {
    /// Creates an engine, validating the configuration.
    pub fn new(config: DenclueConfig) -> Result<Self, GeoError> {
        if !(config.sigma_m > 0.0) {
            return Err(GeoError::InvalidClusteringConfig {
                reason: format!("sigma_m must be positive, got {}", config.sigma_m),
            });
        }
        if !(config.merge_distance_m > 0.0) {
            return Err(GeoError::InvalidClusteringConfig {
                reason: format!("merge_distance_m must be positive, got {}", config.merge_distance_m),
            });
        }
        if config.max_iterations == 0 {
            return Err(GeoError::InvalidClusteringConfig {
                reason: "max_iterations must be at least 1".into(),
            });
        }
        // A NaN or non-positive threshold never ends a climb early: every
        // climb would run to `max_iterations`.
        if !(config.convergence_m > 0.0) {
            return Err(GeoError::InvalidClusteringConfig {
                reason: format!("convergence_m must be positive, got {}", config.convergence_m),
            });
        }
        // `density < NaN` is false, so a NaN minimum would keep every cluster.
        if !(config.min_density >= 0.0) {
            return Err(GeoError::InvalidClusteringConfig {
                reason: format!("min_density must be zero or more, got {}", config.min_density),
            });
        }
        Ok(Denclue { config })
    }

    /// Clusters the given points. The hill climbs run on every core the
    /// process may use; the result does not depend on how many that is.
    pub fn cluster(&self, points: &[GeoPoint]) -> Result<ClusteringResult, GeoError> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.cluster_on(points, workers)
    }

    /// [`Self::cluster`] with the climbs split over `workers` threads: each
    /// climbs one contiguous range of the points, and the ranges' results
    /// are concatenated in index order. A climb reads only the grid and its
    /// own start, so every attractor is the one a single thread finds.
    fn cluster_on(
        &self,
        points: &[GeoPoint],
        workers: usize,
    ) -> Result<ClusteringResult, GeoError> {
        if points.is_empty() {
            return Err(GeoError::EmptyInput { what: "DENCLUE input points" });
        }
        let proj = Projection::fit(points);
        let xy: Vec<(f64, f64)> = points.iter().map(|p| proj.to_xy(p)).collect();
        // Kernel support: contributions beyond 4σ are < e^-8 ≈ 3e-4 and are
        // ignored; a 4σ grid cell means the 3×3 neighbourhood covers them.
        let grid = Grid::build(&xy, 4.0 * self.config.sigma_m);
        let climb_range = |range: &[(f64, f64)]| -> Vec<((f64, f64), f64)> {
            range.iter().map(|&start| self.climb(&grid, &xy, start)).collect()
        };
        let mut ranges = xy.chunks(xy.len().div_ceil(workers.max(1)));
        let first = ranges.next().expect("points are non-empty");
        let climbs: Vec<((f64, f64), f64)> = std::thread::scope(|scope| {
            let rest: Vec<_> =
                ranges.map(|range| scope.spawn(move || climb_range(range))).collect();
            let mut climbs = climb_range(first);
            for handle in rest {
                climbs.extend(handle.join().expect("a climb does not panic"));
            }
            climbs
        });
        let (attractors, densities): (Vec<(f64, f64)>, Vec<f64>) = climbs.into_iter().unzip();

        // Merge attractors closer than merge_distance via union-find.
        let mut parent: Vec<usize> = (0..points.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut r = i;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = i;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        let merge2 = self.config.merge_distance_m * self.config.merge_distance_m;
        let agrid = Grid::build(&attractors, self.config.merge_distance_m.max(1e-9));
        for (i, &(ax, ay)) in attractors.iter().enumerate() {
            for j in agrid.neighbours(ax, ay) {
                if j <= i {
                    continue;
                }
                let (bx, by) = attractors[j];
                if (ax - bx) * (ax - bx) + (ay - by) * (ay - by) <= merge2 {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }

        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..points.len() {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(i);
        }

        let mut clusters = Vec::new();
        let mut noise = Vec::new();
        for (_, members) in groups {
            // Representative attractor: the member with the highest density.
            let &peak = members
                .iter()
                .max_by(|&&a, &&b| densities[a].total_cmp(&densities[b]))
                .expect("groups are non-empty");
            if densities[peak] < self.config.min_density {
                noise.extend(members);
                continue;
            }
            let (ax, ay) = attractors[peak];
            clusters.push(Cluster {
                id: 0, // assigned after sorting
                attractor: proj.to_geo(ax, ay),
                density: densities[peak],
                members,
            });
        }
        clusters.sort_by(|a, b| {
            b.members
                .len()
                .cmp(&a.members.len())
                .then(a.attractor.lat.total_cmp(&b.attractor.lat))
                .then(a.attractor.lon.total_cmp(&b.attractor.lon))
        });
        for (i, c) in clusters.iter_mut().enumerate() {
            c.id = i;
        }
        noise.sort_unstable();
        Ok(ClusteringResult { clusters, noise })
    }

    /// Hill-climbs from `start` to its density attractor: the attractor and
    /// the density there.
    fn climb(&self, grid: &Grid, xy: &[(f64, f64)], start: (f64, f64)) -> ((f64, f64), f64) {
        let inv_2s2 = 1.0 / (2.0 * self.config.sigma_m * self.config.sigma_m);
        let (mut x, mut y) = start;
        let mut density = 0.0;
        for _ in 0..self.config.max_iterations {
            // Mean-shift step: move to the kernel-weighted mean of the
            // neighbourhood; fixed points of this map are the local
            // maxima (density attractors) of the kernel sum.
            let (mut wx, mut wy, mut w) = (0.0, 0.0, 0.0);
            for j in grid.neighbours(x, y) {
                let (px, py) = xy[j];
                let d2 = (px - x) * (px - x) + (py - y) * (py - y);
                let k = (-d2 * inv_2s2).exp();
                wx += k * px;
                wy += k * py;
                w += k;
            }
            density = w;
            if w <= f64::MIN_POSITIVE {
                break;
            }
            let (nx, ny) = (wx / w, wy / w);
            let step2 = (nx - x) * (nx - x) + (ny - y) * (ny - y);
            x = nx;
            y = ny;
            if step2.sqrt() < self.config.convergence_m {
                break;
            }
        }
        ((x, y), density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scatter `n` points with `spread_m` Gaussian-ish noise around centre.
    fn blob(rng: &mut StdRng, center: GeoPoint, n: usize, spread_m: f64) -> Vec<GeoPoint> {
        (0..n)
            .map(|_| {
                let bearing = rng.random_range(0.0..360.0);
                let dist = rng.random_range(0.0..spread_m);
                center.destination(bearing, dist)
            })
            .collect()
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let mut rng = StdRng::seed_from_u64(7);
        let c1 = GeoPoint::new_unchecked(53.340, -6.260);
        let c2 = GeoPoint::new_unchecked(53.345, -6.250); // ~850 m apart
        let mut pts = blob(&mut rng, c1, 40, 15.0);
        pts.extend(blob(&mut rng, c2, 30, 15.0));
        let result = Denclue::new(DenclueConfig::default()).unwrap().cluster(&pts).unwrap();
        assert_eq!(result.clusters.len(), 2, "got {:?}", result.clusters.len());
        assert_eq!(result.clusters[0].members.len(), 40);
        assert_eq!(result.clusters[1].members.len(), 30);
        // Attractors land near the blob centres.
        assert!(result.clusters[0].attractor.haversine_m(&c1) < 30.0);
        assert!(result.clusters[1].attractor.haversine_m(&c2) < 30.0);
    }

    #[test]
    fn merges_nearby_blobs() {
        // Two blobs only 25 m apart with σ=20 m merge into one stop, which
        // is the paper's motivation: the same physical stop gets reported
        // at scattered locations.
        let mut rng = StdRng::seed_from_u64(11);
        let c1 = GeoPoint::new_unchecked(53.3400, -6.2600);
        let c2 = c1.destination(90.0, 25.0);
        let mut pts = blob(&mut rng, c1, 25, 8.0);
        pts.extend(blob(&mut rng, c2, 25, 8.0));
        let result = Denclue::new(DenclueConfig::default()).unwrap().cluster(&pts).unwrap();
        assert_eq!(result.clusters.len(), 1);
        assert_eq!(result.clusters[0].members.len(), 50);
    }

    #[test]
    fn every_point_is_clustered_or_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pts = blob(&mut rng, GeoPoint::new_unchecked(53.33, -6.27), 20, 10.0);
        pts.extend(blob(&mut rng, GeoPoint::new_unchecked(53.36, -6.22), 20, 10.0));
        let result = Denclue::new(DenclueConfig::default()).unwrap().cluster(&pts).unwrap();
        let mut seen = vec![false; pts.len()];
        for c in &result.clusters {
            for &m in &c.members {
                assert!(!seen[m], "point {m} assigned twice");
                seen[m] = true;
            }
        }
        for &m in &result.noise {
            assert!(!seen[m], "noise point {m} also clustered");
            seen[m] = true;
        }
        assert!(seen.iter().all(|&s| s), "every point accounted for");
    }

    #[test]
    fn min_density_marks_isolated_points_as_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = blob(&mut rng, GeoPoint::new_unchecked(53.34, -6.26), 50, 10.0);
        // A lone outlier 2 km away has density ≈ 1 (its own kernel).
        pts.push(GeoPoint::new_unchecked(53.36, -6.23));
        let cfg = DenclueConfig { min_density: 3.0, ..DenclueConfig::default() };
        let result = Denclue::new(cfg).unwrap().cluster(&pts).unwrap();
        assert_eq!(result.clusters.len(), 1);
        assert_eq!(result.noise, vec![50]);
    }

    #[test]
    fn single_point_forms_single_cluster() {
        let pts = vec![GeoPoint::new_unchecked(53.33, -6.26)];
        let result = Denclue::new(DenclueConfig::default()).unwrap().cluster(&pts).unwrap();
        assert_eq!(result.clusters.len(), 1);
        assert_eq!(result.clusters[0].members, vec![0]);
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = Denclue::new(DenclueConfig::default()).unwrap().cluster(&[]);
        assert!(matches!(err, Err(GeoError::EmptyInput { .. })));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Denclue::new(DenclueConfig { sigma_m: 0.0, ..Default::default() }).is_err());
        assert!(Denclue::new(DenclueConfig { sigma_m: -1.0, ..Default::default() }).is_err());
        assert!(
            Denclue::new(DenclueConfig { merge_distance_m: 0.0, ..Default::default() }).is_err()
        );
        assert!(Denclue::new(DenclueConfig { max_iterations: 0, ..Default::default() }).is_err());
    }

    fn rejected(config: DenclueConfig) -> bool {
        matches!(Denclue::new(config), Err(GeoError::InvalidClusteringConfig { .. }))
    }

    #[test]
    fn nan_or_negative_min_density_rejected() {
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(rejected(DenclueConfig { min_density: bad, ..Default::default() }), "{bad}");
        }
        // Zero keeps every cluster, as documented.
        assert!(Denclue::new(DenclueConfig { min_density: 0.0, ..Default::default() }).is_ok());
    }

    #[test]
    fn nan_or_non_positive_convergence_rejected() {
        for bad in [f64::NAN, 0.0, -0.05, f64::NEG_INFINITY] {
            assert!(rejected(DenclueConfig { convergence_m: bad, ..Default::default() }), "{bad}");
        }
    }

    #[test]
    fn the_clustering_does_not_depend_on_the_worker_count() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pts = Vec::new();
        for i in 0..12 {
            let (lat, lon) = (53.30 + 0.004 * f64::from(i), -6.30 + 0.003 * f64::from(i % 5));
            let centre = GeoPoint::new_unchecked(lat, lon);
            pts.extend(blob(&mut rng, centre, 20 + 7 * i as usize, 12.0 + f64::from(i)));
        }
        // Lone points far from any blob: noise under a density floor.
        pts.extend((0..5).map(|i| GeoPoint::new_unchecked(53.45 + 0.01 * f64::from(i), -6.10)));
        let config = DenclueConfig { min_density: 2.0, ..Default::default() };
        let engine = Denclue::new(config).unwrap();
        // Each cluster's attractor and density by their bits, its members;
        // then the noise.
        type Bits = (Vec<([u64; 3], Vec<usize>)>, Vec<usize>);
        let bits = |r: &ClusteringResult| -> Bits {
            let clusters = r
                .clusters
                .iter()
                .map(|c| {
                    let a = c.attractor;
                    ([a.lat.to_bits(), a.lon.to_bits(), c.density.to_bits()], c.members.clone())
                })
                .collect();
            (clusters, r.noise.clone())
        };
        let reference = bits(&engine.cluster_on(&pts, 1).unwrap());
        assert!(reference.0.len() >= 10 && reference.1.len() == 5, "{reference:?}");
        for workers in [2, 3, 7] {
            let result = engine.cluster_on(&pts, workers).unwrap();
            assert_eq!(bits(&result), reference, "{workers} workers");
        }
        // More workers than points: some ranges are a single point.
        let few = &pts[..4];
        let (one, seven) = (engine.cluster_on(few, 1).unwrap(), engine.cluster_on(few, 7).unwrap());
        assert_eq!(bits(&seven), bits(&one));
    }

    #[test]
    fn cluster_ids_are_dense_and_ordered_by_size() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut pts = blob(&mut rng, GeoPoint::new_unchecked(53.32, -6.30), 10, 10.0);
        pts.extend(blob(&mut rng, GeoPoint::new_unchecked(53.35, -6.20), 30, 10.0));
        pts.extend(blob(&mut rng, GeoPoint::new_unchecked(53.38, -6.10), 20, 10.0));
        let result = Denclue::new(DenclueConfig::default()).unwrap().cluster(&pts).unwrap();
        assert_eq!(result.clusters.len(), 3);
        for (i, c) in result.clusters.iter().enumerate() {
            assert_eq!(c.id, i);
        }
        for w in result.clusters.windows(2) {
            assert!(w[0].members.len() >= w[1].members.len());
        }
    }
}
