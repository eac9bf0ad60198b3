//! Synthetic climate model output.
//!
//! Substitution for the PCMDI archives the paper analyzed (DESIGN.md):
//! deterministic, seeded fields with the gross structure of real model
//! output — a latitudinal temperature gradient, a seasonal cycle, diurnal
//! wiggle and AR(1) weather noise; precipitation concentrated in an ITCZ
//! band; cloud fraction anti-correlated with temperature anomaly. What the
//! prototype exercises (file sizes, array shapes, subsetting, analysis,
//! rendering) is identical to real data.

use crate::model::{Axis, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the generator.
#[derive(Debug, Clone, Copy)]
pub struct SynthParams {
    pub lat_points: usize,
    pub lon_points: usize,
    pub time_steps: usize,
    /// Hours between steps (6 h is typical model output cadence).
    pub hours_per_step: f64,
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            lat_points: 64,
            lon_points: 128,
            time_steps: 28, // one week of 6-hourly output
            hours_per_step: 6.0,
            seed: 42,
        }
    }
}

/// Generate a dataset with `tas` (temperature), `pr` (precipitation) and
/// `clt` (cloud fraction) variables.
pub fn generate(name: &str, p: SynthParams) -> Dataset {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut ds = Dataset::new(name);
    ds.set_attr("model", "ESG-SYNTH-1");
    ds.set_attr("institution", "simulated");
    ds.set_attr("comment", "synthetic climate fields, see DESIGN.md");
    let time = Axis::time(p.time_steps, p.hours_per_step);
    let lat = Axis::latitude(p.lat_points);
    let lon = Axis::longitude(p.lon_points);
    let nt = p.time_steps;
    let ny = p.lat_points;
    let nx = p.lon_points;

    let mut tas = Vec::with_capacity(nt * ny * nx);
    let mut pr = Vec::with_capacity(nt * ny * nx);
    let mut clt = Vec::with_capacity(nt * ny * nx);

    // AR(1) weather noise state per grid cell.
    let mut noise = vec![0.0f64; ny * nx];
    const PHI: f64 = 0.8;

    for t in 0..nt {
        let hours = time.values[t];
        let day_of_year = (hours / 24.0) % 365.25;
        let season = (2.0 * std::f64::consts::PI * day_of_year / 365.25).cos();
        let diurnal = (2.0 * std::f64::consts::PI * hours / 24.0).sin();
        for (j, &latv) in lat.values.iter().enumerate() {
            let lat_rad = latv.to_radians();
            // Mean surface temperature: ~300 K equator, ~245 K poles;
            // seasonal swing grows with |lat| and flips hemisphere.
            let base = 300.0 - 55.0 * lat_rad.sin().powi(2);
            let seasonal = -12.0 * season * lat_rad.sin();
            for (i, &lonv) in lon.values.iter().enumerate() {
                let cell = j * nx + i;
                let e: f64 = rng.gen_range(-1.0..1.0);
                noise[cell] = PHI * noise[cell] + (1.0 - PHI * PHI).sqrt() * 3.0 * e;
                // Standing wave: continents vs oceans.
                let standing = 4.0 * (3.0 * lonv.to_radians()).sin() * lat_rad.cos();
                let temp = base + seasonal + standing + 1.5 * diurnal + noise[cell];
                tas.push(temp as f32);

                // Precipitation: ITCZ band near the equator plus storm
                // tracks at mid-latitudes, modulated by noise (mm/day).
                let itcz = 8.0 * (-((latv - 5.0 * season) / 12.0).powi(2)).exp();
                let storm = 3.0 * (-((latv.abs() - 45.0) / 15.0).powi(2)).exp();
                let p_mm = (itcz + storm) * (1.0 + 0.3 * noise[cell] / 3.0);
                pr.push(p_mm.max(0.0) as f32);

                // Cloud fraction: wetter → cloudier, warm anomaly → clearer.
                let c = 0.25 + 0.06 * (itcz + storm) - 0.01 * noise[cell];
                clt.push(c.clamp(0.0, 1.0) as f32);
            }
        }
    }

    ds.add_axis(time);
    ds.add_axis(lat);
    ds.add_axis(lon);
    let dims = ["time", "latitude", "longitude"];
    ds.add_variable("tas", "K", "surface air temperature", &dims, tas)
        .unwrap();
    ds.add_variable("pr", "mm/day", "precipitation rate", &dims, pr)
        .unwrap();
    ds.add_variable("clt", "1", "cloud fraction", &dims, clt)
        .unwrap();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthParams {
        SynthParams {
            lat_points: 16,
            lon_points: 32,
            time_steps: 8,
            hours_per_step: 6.0,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate("a", small());
        let b = generate("a", small());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a = generate("a", small());
        let b = generate("a", SynthParams { seed: 8, ..small() });
        assert_ne!(a, b);
    }

    #[test]
    fn physically_plausible_temperature() {
        let ds = generate("t", small());
        let tas = ds.variable("tas").unwrap();
        for &v in &tas.data {
            assert!(v > 200.0 && v < 340.0, "temperature {v} implausible");
        }
        // Equator warmer than poles on average.
        let ny = 16;
        let nx = 32;
        let row_mean = |j: usize| -> f32 {
            let mut sum = 0.0;
            let mut n = 0;
            for t in 0..8 {
                for i in 0..nx {
                    sum += tas.data[(t * ny + j) * nx + i];
                    n += 1;
                }
            }
            sum / n as f32
        };
        let pole = row_mean(0);
        let equator = row_mean(ny / 2);
        assert!(equator > pole + 20.0, "equator {equator} pole {pole}");
    }

    #[test]
    fn diurnal_cycle_spans_three_kelvin() {
        // The 1.5 K diurnal term, sampled 6-hourly at 0, 6, 12 and 18 h:
        // averaged over the grid by phase of day (`t % 4`), the four phase
        // means span twice its amplitude; the noise averages out.
        let (ny, nx, nt) = (8, 16, 80);
        let p = SynthParams {
            lat_points: ny,
            lon_points: nx,
            time_steps: nt,
            hours_per_step: 6.0,
            seed: 33,
        };
        let ds = generate("diurnal", p);
        let mut phase = [0.0f64; 4];
        for (k, &v) in ds.variable("tas").unwrap().data.iter().enumerate() {
            phase[k / (ny * nx) % 4] += f64::from(v) / (nt / 4 * ny * nx) as f64;
        }
        let hi = phase.iter().copied().fold(f64::MIN, f64::max);
        let lo = phase.iter().copied().fold(f64::MAX, f64::min);
        let range = hi - lo;
        assert!((2.5..3.5).contains(&range), "diurnal range {range} K");
    }

    #[test]
    fn precipitation_nonnegative_cloud_in_unit_interval() {
        let ds = generate("t", small());
        for &v in &ds.variable("pr").unwrap().data {
            assert!(v >= 0.0);
        }
        for &v in &ds.variable("clt").unwrap().data {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn survives_format_round_trip() {
        let ds = generate("rt", small());
        let bytes = crate::ncio::to_bytes(&ds);
        let back = crate::ncio::from_bytes(&bytes).unwrap();
        assert_eq!(back, ds);
    }
}
