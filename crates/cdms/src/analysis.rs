//! Climate analysis operations.
//!
//! CDAT "uses the Python scripting language to provide a flexible system
//! for analysis of climate model data" (§3). The operations here are the
//! standard diagnostics the VCDAT demo performs after transfer: time means,
//! area-weighted global means, zonal means, anomalies and extrema.

use crate::model::{Dataset, ModelError, Variable};

/// Result of a reduction over time: one 2-D (lat × lon) field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2d {
    pub lat: Vec<f64>,
    pub lon: Vec<f64>,
    pub data: Vec<f32>, // lat-major
}

impl Field2d {
    pub fn get(&self, j: usize, i: usize) -> f32 {
        self.data[j * self.lon.len() + i]
    }

    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        (lo, hi)
    }
}

fn tyx_shape(ds: &Dataset, var: &Variable) -> Result<(usize, usize, usize), ModelError> {
    let shape = ds.shape_of(var);
    if shape.len() != 3 {
        return Err(ModelError::BadSlab(format!(
            "analysis expects (time, lat, lon) variables, got rank {}",
            shape.len()
        )));
    }
    Ok((shape[0], shape[1], shape[2]))
}

/// Mean over the time dimension → lat×lon field.
pub fn time_mean(ds: &Dataset, var_name: &str) -> Result<Field2d, ModelError> {
    let var = ds.variable(var_name)?;
    let (nt, ny, nx) = tyx_shape(ds, var)?;
    let mut acc = vec![0.0f64; ny * nx];
    for t in 0..nt {
        let base = t * ny * nx;
        for (c, slot) in acc.iter_mut().enumerate() {
            *slot += var.data[base + c] as f64;
        }
    }
    let data = acc.into_iter().map(|s| (s / nt as f64) as f32).collect();
    Ok(Field2d {
        lat: ds.axes[var.dims[1]].values.clone(),
        lon: ds.axes[var.dims[2]].values.clone(),
        data,
    })
}

/// Area-weighted global mean time series (weights ∝ cos latitude).
pub fn global_mean_series(ds: &Dataset, var_name: &str) -> Result<Vec<f64>, ModelError> {
    let var = ds.variable(var_name)?;
    let (nt, ny, nx) = tyx_shape(ds, var)?;
    let lat = &ds.axes[var.dims[1]].values;
    let weights: Vec<f64> = lat.iter().map(|&l| l.to_radians().cos().max(0.0)).collect();
    let wsum: f64 = weights.iter().sum::<f64>() * nx as f64;
    let mut out = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut acc = 0.0f64;
        for (j, &w) in weights.iter().enumerate() {
            let base = (t * ny + j) * nx;
            let row_sum: f64 = var.data[base..base + nx].iter().map(|&v| v as f64).sum();
            acc += w * row_sum;
        }
        out.push(acc / wsum);
    }
    Ok(out)
}

/// Zonal (longitude) mean → time×lat array, lat-major per step.
pub fn zonal_mean(ds: &Dataset, var_name: &str) -> Result<Vec<Vec<f32>>, ModelError> {
    let var = ds.variable(var_name)?;
    let (nt, ny, nx) = tyx_shape(ds, var)?;
    let mut out = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut row = Vec::with_capacity(ny);
        for j in 0..ny {
            let base = (t * ny + j) * nx;
            let s: f64 = var.data[base..base + nx].iter().map(|&v| v as f64).sum();
            row.push((s / nx as f64) as f32);
        }
        out.push(row);
    }
    Ok(out)
}

/// Simple statistics over a variable's full data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f32,
    pub max: f32,
    pub mean: f64,
    pub count: usize,
}

pub fn stats(ds: &Dataset, var_name: &str) -> Result<Stats, ModelError> {
    let var = ds.variable(var_name)?;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut sum = 0.0f64;
    for &v in &var.data {
        min = min.min(v);
        max = max.max(v);
        sum += v as f64;
    }
    Ok(Stats {
        min,
        max,
        mean: sum / var.data.len().max(1) as f64,
        count: var.data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Axis;

    fn ds() -> Dataset {
        let mut ds = Dataset::new("t");
        ds.add_axis(Axis::time(2, 6.0));
        ds.add_axis(Axis::latitude(2)); // -45, 45
        ds.add_axis(Axis::longitude(2));
        // t0: [[1,2],[3,4]]  t1: [[5,6],[7,8]]
        ds.add_variable(
            "v",
            "K",
            "",
            &["time", "latitude", "longitude"],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
        .unwrap();
        ds
    }

    #[test]
    fn time_mean_averages_steps() {
        let m = time_mean(&ds(), "v").unwrap();
        assert_eq!(m.data, vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 0), 5.0);
    }

    #[test]
    fn global_mean_weighted_equally_for_symmetric_lats() {
        // Both latitudes are ±45° → equal weights → plain mean.
        let g = global_mean_series(&ds(), "v").unwrap();
        assert_eq!(g.len(), 2);
        assert!((g[0] - 2.5).abs() < 1e-9);
        assert!((g[1] - 6.5).abs() < 1e-9);
    }

    #[test]
    fn weighting_prefers_equator() {
        let mut d = Dataset::new("w");
        d.add_axis(Axis::time(1, 6.0));
        d.add_axis(Axis::new("latitude", "deg", vec![0.0, 80.0]));
        d.add_axis(Axis::longitude(1));
        d.add_variable(
            "v",
            "",
            "",
            &["time", "latitude", "longitude"],
            vec![10.0, 0.0],
        )
        .unwrap();
        let g = global_mean_series(&d, "v").unwrap();
        // cos(0)=1, cos(80°)≈0.17 → mean strongly pulled toward 10.
        assert!(g[0] > 8.0, "{}", g[0]);
    }

    #[test]
    fn zonal_mean_rows() {
        let z = zonal_mean(&ds(), "v").unwrap();
        assert_eq!(z, vec![vec![1.5, 3.5], vec![5.5, 7.5]]);
    }

    #[test]
    fn stats_basic() {
        let s = stats(&ds(), "v").unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 8.0);
        assert!((s.mean - 4.5).abs() < 1e-9);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn wrong_rank_rejected() {
        let mut d = Dataset::new("r");
        d.add_axis(Axis::latitude(2));
        d.add_variable("v", "", "", &["latitude"], vec![1.0, 2.0])
            .unwrap();
        assert!(time_mean(&d, "v").is_err());
    }

    #[test]
    fn min_max_field() {
        let m = time_mean(&ds(), "v").unwrap();
        assert_eq!(m.min_max(), (3.0, 6.0));
    }
}
