//! The CDMS data model: axes, variables, datasets.
//!
//! CDMS "supports a view of data as a collection of datasets, comprised
//! primarily of multidimensional data variables together with descriptive,
//! textual data" (§3). A [`Dataset`] owns named coordinate [`Axis`] objects
//! and [`Variable`]s whose dimensions reference those axes; one logical
//! dataset "may consist of thousands of individual data files" — the
//! time-partitioned file mapping lives in [`crate::partition`].

use std::fmt;

/// A coordinate axis (latitude, longitude, time, level...).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    pub name: String,
    pub units: String,
    pub values: Vec<f64>,
}

impl Axis {
    pub fn new(name: impl Into<String>, units: impl Into<String>, values: Vec<f64>) -> Self {
        Axis {
            name: name.into(),
            units: units.into(),
            values,
        }
    }

    /// A regular latitude axis with `n` points from -90..90 (cell centers).
    pub fn latitude(n: usize) -> Self {
        let step = 180.0 / n as f64;
        Axis::new(
            "latitude",
            "degrees_north",
            (0..n).map(|i| -90.0 + step * (i as f64 + 0.5)).collect(),
        )
    }

    /// A regular longitude axis with `n` points from 0..360 (cell centers).
    pub fn longitude(n: usize) -> Self {
        let step = 360.0 / n as f64;
        Axis::new(
            "longitude",
            "degrees_east",
            (0..n).map(|i| step * (i as f64 + 0.5)).collect(),
        )
    }

    /// A time axis of `n` steps, `hours_per_step` apart, since a nominal
    /// epoch.
    pub fn time(n: usize, hours_per_step: f64) -> Self {
        Axis::new(
            "time",
            "hours since 2000-01-01 00:00",
            (0..n).map(|i| i as f64 * hours_per_step).collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest contiguous index range covering `[lo, hi]` (inclusive).
    pub fn range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let mut start = None;
        let mut end = 0;
        for (i, &v) in self.values.iter().enumerate() {
            if v >= lo && v <= hi {
                if start.is_none() {
                    start = Some(i);
                }
                end = i;
            }
        }
        match start {
            Some(s) => (s, end + 1 - s),
            None => (0, 0),
        }
    }
}

/// A multidimensional variable. `dims` are indices into the owning
/// dataset's axes, slowest-varying first (row-major layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub name: String,
    pub units: String,
    pub long_name: String,
    pub dims: Vec<usize>,
    pub data: Vec<f32>,
}

/// Errors in the data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    ShapeMismatch { expected: usize, got: usize },
    NoSuchAxis(String),
    NoSuchVariable(String),
    BadSlab(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ShapeMismatch { expected, got } => {
                write!(f, "data length {got} != shape product {expected}")
            }
            ModelError::NoSuchAxis(a) => write!(f, "no such axis: {a}"),
            ModelError::NoSuchVariable(v) => write!(f, "no such variable: {v}"),
            ModelError::BadSlab(s) => write!(f, "bad hyperslab: {s}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A dataset: attributes + axes + variables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub axes: Vec<Axis>,
    pub variables: Vec<Variable>,
}

impl Dataset {
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            ..Dataset::default()
        }
    }

    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attributes.push((key.into(), value.into()));
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn add_axis(&mut self, axis: Axis) -> usize {
        self.axes.push(axis);
        self.axes.len() - 1
    }

    pub fn axis(&self, name: &str) -> Result<(usize, &Axis), ModelError> {
        self.axes
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .ok_or_else(|| ModelError::NoSuchAxis(name.to_string()))
    }

    /// Add a variable over the named axes; validates the data length.
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        units: impl Into<String>,
        long_name: impl Into<String>,
        axis_names: &[&str],
        data: Vec<f32>,
    ) -> Result<usize, ModelError> {
        let mut dims = Vec::with_capacity(axis_names.len());
        let mut expected = 1usize;
        for an in axis_names {
            let (i, axis) = self.axis(an)?;
            dims.push(i);
            expected *= axis.len();
        }
        if data.len() != expected {
            return Err(ModelError::ShapeMismatch {
                expected,
                got: data.len(),
            });
        }
        self.variables.push(Variable {
            name: name.into(),
            units: units.into(),
            long_name: long_name.into(),
            dims,
            data,
        });
        Ok(self.variables.len() - 1)
    }

    pub fn variable(&self, name: &str) -> Result<&Variable, ModelError> {
        self.variables
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| ModelError::NoSuchVariable(name.to_string()))
    }

    /// Shape of a variable: axis lengths, slowest first.
    pub fn shape_of(&self, var: &Variable) -> Vec<usize> {
        var.dims.iter().map(|&d| self.axes[d].len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let mut ds = Dataset::new("pcm_b06.61");
        ds.set_attr("model", "PCM");
        ds.add_axis(Axis::time(4, 6.0));
        ds.add_axis(Axis::latitude(3));
        ds.add_axis(Axis::longitude(4));
        let data: Vec<f32> = (0..4 * 3 * 4).map(|i| i as f32).collect();
        ds.add_variable(
            "tas",
            "K",
            "surface air temperature",
            &["time", "latitude", "longitude"],
            data,
        )
        .unwrap();
        ds
    }

    #[test]
    fn axis_builders() {
        let lat = Axis::latitude(4);
        assert_eq!(lat.values, vec![-67.5, -22.5, 22.5, 67.5]);
        let lon = Axis::longitude(4);
        assert_eq!(lon.values, vec![45.0, 135.0, 225.0, 315.0]);
        let t = Axis::time(3, 24.0);
        assert_eq!(t.values, vec![0.0, 24.0, 48.0]);
    }

    #[test]
    fn range() {
        let lat = Axis::latitude(6); // -75, -45, -15, 15, 45, 75
        assert_eq!(lat.range(-20.0, 50.0), (2, 3));
        assert_eq!(lat.range(500.0, 600.0), (0, 0));
    }

    #[test]
    fn variable_shape_validated() {
        let mut ds = Dataset::new("x");
        ds.add_axis(Axis::latitude(3));
        let err = ds
            .add_variable("v", "K", "", &["latitude"], vec![1.0, 2.0])
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::ShapeMismatch {
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn unknown_axis_rejected() {
        let mut ds = Dataset::new("x");
        let err = ds
            .add_variable("v", "K", "", &["depth"], vec![])
            .unwrap_err();
        assert!(matches!(err, ModelError::NoSuchAxis(_)));
    }

    #[test]
    fn lookup_and_shape() {
        let ds = small();
        let v = ds.variable("tas").unwrap();
        assert_eq!(ds.shape_of(v), vec![4, 3, 4]);
        assert!(ds.variable("pr").is_err());
        assert_eq!(ds.attr("model"), Some("PCM"));
        assert_eq!(ds.attr("nope"), None);
    }
}
