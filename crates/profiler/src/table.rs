//! Interpolating lookup over a measured profile.

use std::collections::BTreeSet;
use std::io::{BufRead, Write};

use flashmob::cost::CostModel;
use flashmob::partition::SamplePolicy;

use crate::micro::ProfilePoint;

/// A measured cost surface with trilinear interpolation in
/// `(log2 vp_size, log2 degree, density)`.
///
/// Implements [`CostModel`], so `FlashMob::with_cost_model` can plan
/// from measured data — the configuration path the paper uses.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    vp_sizes: Vec<usize>,
    degrees: Vec<usize>,
    densities: Vec<f64>,
    /// `values[surface][i_vp][i_deg][i_rho]`; surfaces: 0 = PS,
    /// 1 = DS (CSR), 2 = DS (slab).
    values: Vec<Vec<Vec<Vec<f64>>>>,
    shuffle_ns: f64,
}

/// Errors from table construction / IO.
#[derive(Debug)]
pub enum TableError {
    /// The point set did not form a complete grid.
    IncompleteGrid {
        /// Human-readable description of the first hole.
        missing: String,
    },
    /// No points at all.
    Empty,
    /// Parse failure when loading.
    Parse(String),
    /// IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::IncompleteGrid { missing } => write!(f, "incomplete grid: {missing}"),
            TableError::Empty => write!(f, "no profile points"),
            TableError::Parse(m) => write!(f, "bad profile file: {m}"),
            TableError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

fn surface_of(policy: SamplePolicy, uniform: bool) -> usize {
    match (policy, uniform) {
        (SamplePolicy::PreSample, _) => 0,
        (SamplePolicy::Direct, false) => 1,
        (SamplePolicy::Direct, true) => 2,
    }
}

impl ProfileTable {
    /// Builds the table from a complete grid of measured points.
    pub fn from_points(points: &[ProfilePoint], shuffle_ns: f64) -> Result<Self, TableError> {
        if points.is_empty() {
            return Err(TableError::Empty);
        }
        let vp_sizes: Vec<usize> = points
            .iter()
            .map(|p| p.vp_size)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let degrees: Vec<usize> = points
            .iter()
            .map(|p| p.degree)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let densities: Vec<f64> = {
            let mut d: Vec<f64> = points.iter().map(|p| p.density).collect();
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite densities"));
            d.dedup();
            d
        };
        let mut values =
            vec![vec![vec![vec![f64::NAN; densities.len()]; degrees.len()]; vp_sizes.len()]; 3];
        for p in points {
            let i = vp_sizes.binary_search(&p.vp_size).expect("member");
            let j = degrees.binary_search(&p.degree).expect("member");
            let k = densities
                .iter()
                .position(|&d| d == p.density)
                .expect("member");
            values[surface_of(p.policy, p.uniform_layout)][i][j][k] = p.ns_per_step;
        }
        for (si, surface) in values.iter().enumerate() {
            for (i, plane) in surface.iter().enumerate() {
                for (j, row) in plane.iter().enumerate() {
                    for (k, v) in row.iter().enumerate() {
                        if v.is_nan() {
                            return Err(TableError::IncompleteGrid {
                                missing: format!(
                                    "surface {si}, vp {}, degree {}, density {}",
                                    vp_sizes[i], degrees[j], densities[k]
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(Self {
            vp_sizes,
            degrees,
            densities,
            values,
            shuffle_ns,
        })
    }

    /// Grid axes (diagnostics).
    pub fn axes(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.vp_sizes, &self.degrees, &self.densities)
    }

    /// Serializes to a simple line-oriented text format.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), TableError> {
        writeln!(w, "flashmob-profile v1")?;
        writeln!(w, "shuffle_ns {}", self.shuffle_ns)?;
        for (si, surface) in self.values.iter().enumerate() {
            for (i, plane) in surface.iter().enumerate() {
                for (j, row) in plane.iter().enumerate() {
                    for (k, v) in row.iter().enumerate() {
                        writeln!(
                            w,
                            "{si} {} {} {} {v}",
                            self.vp_sizes[i], self.degrees[j], self.densities[k]
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads a table saved by [`ProfileTable::save`].
    pub fn load<R: BufRead>(r: R) -> Result<Self, TableError> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| TableError::Parse("empty file".into()))??;
        if header.trim() != "flashmob-profile v1" {
            return Err(TableError::Parse(format!("bad header {header:?}")));
        }
        let shuffle_line = lines
            .next()
            .ok_or_else(|| TableError::Parse("missing shuffle_ns".into()))??;
        let shuffle_ns: f64 = shuffle_line
            .strip_prefix("shuffle_ns ")
            .ok_or_else(|| TableError::Parse("missing shuffle_ns".into()))?
            .trim()
            .parse()
            .map_err(|e| TableError::Parse(format!("bad shuffle_ns: {e}")))?;
        let mut points = Vec::new();
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let mut f = t.split_whitespace();
            let parse_err = || TableError::Parse(format!("bad line {t:?}"));
            let si: usize = f
                .next()
                .ok_or_else(parse_err)?
                .parse()
                .map_err(|_| parse_err())?;
            let vp: usize = f
                .next()
                .ok_or_else(parse_err)?
                .parse()
                .map_err(|_| parse_err())?;
            let dg: usize = f
                .next()
                .ok_or_else(parse_err)?
                .parse()
                .map_err(|_| parse_err())?;
            let rho: f64 = f
                .next()
                .ok_or_else(parse_err)?
                .parse()
                .map_err(|_| parse_err())?;
            let v: f64 = f
                .next()
                .ok_or_else(parse_err)?
                .parse()
                .map_err(|_| parse_err())?;
            let (policy, uniform) = match si {
                0 => (SamplePolicy::PreSample, false),
                1 => (SamplePolicy::Direct, false),
                2 => (SamplePolicy::Direct, true),
                _ => return Err(TableError::Parse(format!("bad surface {si}"))),
            };
            points.push(ProfilePoint {
                vp_size: vp,
                degree: dg,
                density: rho,
                policy,
                uniform_layout: uniform,
                ns_per_step: v,
            });
        }
        Self::from_points(&points, shuffle_ns)
    }

    /// Interpolated lookup for one surface.
    fn lookup(&self, surface: usize, vp: f64, degree: f64, density: f64) -> f64 {
        let (i0, i1, ti) = bracket_log(&self.vp_sizes, vp);
        let (j0, j1, tj) = bracket_log(&self.degrees, degree);
        let (k0, k1, tk) = bracket_lin(&self.densities, density);
        let v = &self.values[surface];
        let c = |i: usize, j: usize, k: usize| v[i][j][k];
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let jk = |i: usize| {
            lerp(
                lerp(c(i, j0, k0), c(i, j0, k1), tk),
                lerp(c(i, j1, k0), c(i, j1, k1), tk),
                tj,
            )
        };
        lerp(jk(i0), jk(i1), ti)
    }
}

/// Finds bracketing indices and interpolation weight on a log2 axis.
fn bracket_log(axis: &[usize], x: f64) -> (usize, usize, f64) {
    let x = x.max(1.0);
    let last = axis.len() - 1;
    if x <= axis[0] as f64 {
        return (0, 0, 0.0);
    }
    if x >= axis[last] as f64 {
        return (last, last, 0.0);
    }
    let hi = axis.partition_point(|&a| (a as f64) < x).min(last);
    let lo = hi - 1;
    let (a, b) = (axis[lo] as f64, axis[hi] as f64);
    let t = (x.log2() - a.log2()) / (b.log2() - a.log2());
    (lo, hi, t)
}

/// Linear-axis bracketing.
fn bracket_lin(axis: &[f64], x: f64) -> (usize, usize, f64) {
    let last = axis.len() - 1;
    if x <= axis[0] {
        return (0, 0, 0.0);
    }
    if x >= axis[last] {
        return (last, last, 0.0);
    }
    let hi = axis.partition_point(|&a| a < x).min(last);
    let lo = hi - 1;
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

impl CostModel for ProfileTable {
    fn sample_cost_ns(
        &self,
        vp_vertices: usize,
        avg_degree: f64,
        density: f64,
        policy: SamplePolicy,
        uniform: bool,
    ) -> f64 {
        self.lookup(
            surface_of(policy, uniform),
            vp_vertices as f64,
            avg_degree,
            density,
        )
    }

    fn shuffle_cost_ns(&self) -> f64 {
        self.shuffle_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<ProfilePoint> {
        let mut pts = Vec::new();
        for (si, policy, uniform) in [
            (0usize, SamplePolicy::PreSample, false),
            (1, SamplePolicy::Direct, false),
            (2, SamplePolicy::Direct, true),
        ] {
            for &vp in &[256usize, 1024] {
                for &dg in &[2usize, 32] {
                    for &rho in &[0.5f64, 2.0] {
                        pts.push(ProfilePoint {
                            vp_size: vp,
                            degree: dg,
                            density: rho,
                            policy,
                            uniform_layout: uniform,
                            // A recognizable synthetic function.
                            ns_per_step: (si + 1) as f64
                                * (vp as f64).log2()
                                * (dg as f64).log2().max(1.0)
                                / rho,
                        });
                    }
                }
            }
        }
        pts
    }

    #[test]
    fn exact_grid_points_round_trip() {
        let pts = grid_points();
        let t = ProfileTable::from_points(&pts, 3.0).unwrap();
        for p in &pts {
            let v = t.sample_cost_ns(
                p.vp_size,
                p.degree as f64,
                p.density,
                p.policy,
                p.uniform_layout,
            );
            assert!(
                (v - p.ns_per_step).abs() < 1e-9,
                "grid point should be exact: {v} vs {}",
                p.ns_per_step
            );
        }
        assert_eq!(t.shuffle_cost_ns(), 3.0);
    }

    #[test]
    fn interpolation_is_between_neighbors() {
        let t = ProfileTable::from_points(&grid_points(), 1.0).unwrap();
        let lo = t.sample_cost_ns(256, 2.0, 1.0, SamplePolicy::Direct, false);
        let hi = t.sample_cost_ns(1024, 2.0, 1.0, SamplePolicy::Direct, false);
        let mid = t.sample_cost_ns(512, 2.0, 1.0, SamplePolicy::Direct, false);
        let (a, b) = if lo < hi { (lo, hi) } else { (hi, lo) };
        assert!(mid >= a - 1e-9 && mid <= b + 1e-9, "{a} <= {mid} <= {b}");
    }

    #[test]
    fn out_of_range_clamps() {
        let t = ProfileTable::from_points(&grid_points(), 1.0).unwrap();
        let edge = t.sample_cost_ns(1024, 32.0, 2.0, SamplePolicy::PreSample, false);
        let beyond = t.sample_cost_ns(1 << 20, 4096.0, 100.0, SamplePolicy::PreSample, false);
        assert!((edge - beyond).abs() < 1e-9);
    }

    #[test]
    fn incomplete_grid_rejected() {
        let mut pts = grid_points();
        pts.pop();
        assert!(matches!(
            ProfileTable::from_points(&pts, 1.0),
            Err(TableError::IncompleteGrid { .. })
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let t = ProfileTable::from_points(&grid_points(), 2.5).unwrap();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let t2 = ProfileTable::load(&buf[..]).unwrap();
        assert_eq!(t.axes().0, t2.axes().0);
        let probe = t.sample_cost_ns(700, 11.0, 1.3, SamplePolicy::Direct, true);
        let probe2 = t2.sample_cost_ns(700, 11.0, 1.3, SamplePolicy::Direct, true);
        assert!((probe - probe2).abs() < 1e-9);
        assert_eq!(t2.shuffle_cost_ns(), 2.5);
    }

    #[test]
    fn bad_files_rejected() {
        assert!(ProfileTable::load(&b"nope"[..]).is_err());
        assert!(ProfileTable::load(&b"flashmob-profile v1\nshuffle_ns x\n"[..]).is_err());
        assert!(
            ProfileTable::load(&b"flashmob-profile v1\nshuffle_ns 1\n9 1 1 1 1\n"[..]).is_err()
        );
    }

    #[test]
    fn measured_profile_feeds_planner() {
        // End-to-end: tiny real measurement -> table -> FlashMob plan.
        let grid = crate::micro::ProfileGrid::tiny();
        let points = crate::micro::run_profile(&grid);
        let table = ProfileTable::from_points(&points, 2.0).unwrap();
        let g = fm_graph::synth::power_law(2000, 2.0, 1, 60, 5);
        let cfg = flashmob::WalkConfig::deepwalk()
            .walkers(1000)
            .steps(2)
            .planner(flashmob::PlannerParams {
                target_groups: 8,
                max_partitions: 64,
                min_vp_vertices: 16,
                ..flashmob::PlannerParams::default()
            });
        let engine = flashmob::FlashMob::with_cost_model(&g, cfg, &table).unwrap();
        let opts = flashmob::RunOptions::default();
        let (out, _) = engine
            .run_with(&opts, &mut fm_telemetry::Telemetry::off())
            .unwrap();
        assert_eq!(out.paths().len(), 1000);
    }
}
