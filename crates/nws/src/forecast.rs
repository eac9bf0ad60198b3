//! NWS forecasting methods.
//!
//! The Network Weather Service [Wolski, 1997] "periodically monitors and
//! dynamically forecasts the performance that various network and
//! computational resources can deliver over a given time interval". Its
//! characteristic design is a *portfolio* of simple predictors — last
//! value, running mean, sliding-window means, medians, exponential
//! smoothing — plus a meta-predictor that tracks each one's error on the
//! history so far and answers with the current best. [`AdaptiveForecaster`]
//! implements that mixture-of-experts scheme.

/// A forecasting method over a scalar measurement history.
pub trait Forecaster {
    /// Human-readable method name.
    fn name(&self) -> &str;
    /// Update internal state with a new measurement.
    fn observe(&mut self, value: f64);
    /// Predict the next measurement; `None` until enough history exists.
    fn predict(&self) -> Option<f64>;
}

/// Predicts the most recent measurement.
#[derive(Debug, Default, Clone)]
pub struct LastValue {
    last: Option<f64>,
}

impl Forecaster for LastValue {
    fn name(&self) -> &str {
        "last-value"
    }
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Mean of the entire history.
#[derive(Debug, Default, Clone)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl Forecaster for RunningMean {
    fn name(&self) -> &str {
        "running-mean"
    }
    fn observe(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Mean over the last `k` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    window: std::collections::VecDeque<f64>,
    k: usize,
    name: String,
}

impl SlidingMean {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        SlidingMean {
            window: std::collections::VecDeque::with_capacity(k),
            k,
            name: format!("sliding-mean-{k}"),
        }
    }
}

impl Forecaster for SlidingMean {
    fn name(&self) -> &str {
        &self.name
    }
    fn observe(&mut self, value: f64) {
        if self.window.len() == self.k {
            self.window.pop_front();
        }
        self.window.push_back(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.iter().sum::<f64>() / self.window.len() as f64)
        }
    }
}

/// Median over the last `k` measurements — robust to the throughput
/// outliers WAN probes produce.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    window: std::collections::VecDeque<f64>,
    k: usize,
    name: String,
}

impl SlidingMedian {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        SlidingMedian {
            window: std::collections::VecDeque::with_capacity(k),
            k,
            name: format!("sliding-median-{k}"),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn name(&self) -> &str {
        &self.name
    }
    fn observe(&mut self, value: f64) {
        if self.window.len() == self.k {
            self.window.pop_front();
        }
        self.window.push_back(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
}

/// Exponential smoothing with gain `alpha`.
#[derive(Debug, Clone)]
pub struct ExpSmoothing {
    alpha: f64,
    state: Option<f64>,
    name: String,
}

impl ExpSmoothing {
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        ExpSmoothing {
            alpha,
            state: None,
            name: format!("exp-smoothing-{alpha:.2}"),
        }
    }
}

impl Forecaster for ExpSmoothing {
    fn name(&self) -> &str {
        &self.name
    }
    fn observe(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
}

/// Wolski's adaptive meta-forecaster: runs every method in the portfolio,
/// tracks each method's mean squared error against realized measurements,
/// and predicts with the historically best method.
pub struct AdaptiveForecaster {
    methods: Vec<Box<dyn Forecaster + Send>>,
    /// Accumulated squared error and prediction count per method.
    errors: Vec<(f64, u64)>,
    /// Predictions each method made for the *next* observation.
    pending: Vec<Option<f64>>,
    observations: u64,
}

impl Default for AdaptiveForecaster {
    fn default() -> Self {
        Self::standard()
    }
}

impl AdaptiveForecaster {
    /// The standard NWS-like portfolio.
    pub fn standard() -> Self {
        Self::new(vec![
            Box::new(LastValue::default()),
            Box::new(RunningMean::default()),
            Box::new(SlidingMean::new(5)),
            Box::new(SlidingMean::new(20)),
            Box::new(SlidingMedian::new(5)),
            Box::new(SlidingMedian::new(21)),
            Box::new(ExpSmoothing::new(0.1)),
            Box::new(ExpSmoothing::new(0.5)),
        ])
    }

    pub fn new(methods: Vec<Box<dyn Forecaster + Send>>) -> Self {
        assert!(!methods.is_empty());
        let n = methods.len();
        AdaptiveForecaster {
            methods,
            errors: vec![(0.0, 0); n],
            pending: vec![None; n],
            observations: 0,
        }
    }

    /// Index and MSE of the current best method.
    fn best(&self) -> usize {
        let mut best = 0;
        let mut best_mse = f64::INFINITY;
        for (i, &(se, n)) in self.errors.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mse = se / n as f64;
            if mse < best_mse {
                best_mse = mse;
                best = i;
            }
        }
        best
    }

    /// Name of the method currently winning the error tournament.
    pub fn best_method(&self) -> &str {
        self.methods[self.best()].name()
    }

    /// Per-method (name, mse) diagnostics.
    pub fn method_errors(&self) -> Vec<(String, f64)> {
        self.methods
            .iter()
            .zip(&self.errors)
            .map(|(m, &(se, n))| {
                (
                    m.name().to_string(),
                    if n == 0 { f64::NAN } else { se / n as f64 },
                )
            })
            .collect()
    }

    /// Prediction together with the winning method's RMS error — NWS
    /// reports forecast accuracy so consumers can weigh how much to trust
    /// a number. `None` until at least one method has been scored.
    pub fn predict_with_error(&self) -> Option<(f64, f64)> {
        let best = self.best();
        let (se, n) = self.errors[best];
        if n == 0 {
            return None;
        }
        let pred = self.methods[best].predict()?;
        Some((pred, (se / n as f64).sqrt()))
    }
}

impl Forecaster for AdaptiveForecaster {
    fn name(&self) -> &str {
        "nws-adaptive"
    }

    fn observe(&mut self, value: f64) {
        // Score outstanding predictions against the realized value.
        for (i, p) in self.pending.iter_mut().enumerate() {
            if let Some(pred) = p.take() {
                let e = pred - value;
                self.errors[i].0 += e * e;
                self.errors[i].1 += 1;
            }
        }
        for (i, m) in self.methods.iter_mut().enumerate() {
            m.observe(value);
            self.pending[i] = m.predict();
        }
        self.observations += 1;
    }

    fn predict(&self) -> Option<f64> {
        if self.observations == 0 {
            return None;
        }
        self.methods[self.best()].predict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut dyn Forecaster, values: &[f64]) {
        for &v in values {
            f.observe(v);
        }
    }

    #[test]
    fn last_value() {
        let mut f = LastValue::default();
        assert_eq!(f.predict(), None);
        feed(&mut f, &[1.0, 5.0, 3.0]);
        assert_eq!(f.predict(), Some(3.0));
    }

    #[test]
    fn running_mean() {
        let mut f = RunningMean::default();
        feed(&mut f, &[2.0, 4.0, 6.0]);
        assert_eq!(f.predict(), Some(4.0));
    }

    #[test]
    fn sliding_mean_windows() {
        let mut f = SlidingMean::new(2);
        feed(&mut f, &[10.0, 2.0, 4.0]);
        assert_eq!(f.predict(), Some(3.0)); // only last two
    }

    #[test]
    fn sliding_median_robust_to_outlier() {
        let mut f = SlidingMedian::new(5);
        feed(&mut f, &[10.0, 10.0, 10.0, 10.0, 1000.0]);
        assert_eq!(f.predict(), Some(10.0));
    }

    #[test]
    fn median_even_window() {
        let mut f = SlidingMedian::new(4);
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn exp_smoothing_tracks() {
        let mut f = ExpSmoothing::new(0.5);
        feed(&mut f, &[0.0, 10.0]);
        assert_eq!(f.predict(), Some(5.0));
        f.observe(10.0);
        assert_eq!(f.predict(), Some(7.5));
    }

    #[test]
    fn adaptive_prefers_last_value_on_trend() {
        // Strictly increasing series: last-value has the lowest MSE of the
        // portfolio; running mean lags far behind.
        let mut f = AdaptiveForecaster::standard();
        for i in 0..100 {
            f.observe(i as f64 * 10.0);
        }
        assert_eq!(f.best_method(), "last-value");
        let p = f.predict().unwrap();
        assert!((p - 990.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_prefers_averaging_on_noise() {
        // Alternating noise around a constant: means/medians beat
        // last-value (which is always exactly wrong by the full swing).
        let mut f = AdaptiveForecaster::standard();
        for i in 0..200 {
            f.observe(if i % 2 == 0 { 90.0 } else { 110.0 });
        }
        assert_ne!(f.best_method(), "last-value");
        let p = f.predict().unwrap();
        assert!((p - 100.0).abs() < 6.0, "prediction {p}");
    }

    #[test]
    fn adaptive_empty_history() {
        let f = AdaptiveForecaster::standard();
        assert_eq!(f.predict(), None);
    }

    #[test]
    fn predict_with_error_reports_rms() {
        let mut f = AdaptiveForecaster::standard();
        assert_eq!(f.predict_with_error(), None);
        for _ in 0..20 {
            f.observe(100.0);
        }
        let (pred, rms) = f.predict_with_error().unwrap();
        assert!((pred - 100.0).abs() < 1e-9);
        assert!(rms < 1e-9);
        // Noisy series: rms grows with the noise scale.
        let mut g = AdaptiveForecaster::standard();
        for i in 0..200 {
            g.observe(if i % 2 == 0 { 80.0 } else { 120.0 });
        }
        let (_, rms_noisy) = g.predict_with_error().unwrap();
        assert!(rms_noisy > 5.0, "{rms_noisy}");
    }

    #[test]
    fn adaptive_method_errors_exposed() {
        let mut f = AdaptiveForecaster::standard();
        for _ in 0..10 {
            f.observe(5.0);
        }
        let errs = f.method_errors();
        assert_eq!(errs.len(), 8);
        // Constant series: every scored method should have ~zero error.
        for (name, mse) in errs {
            assert!(mse.is_nan() || mse < 1e-12, "{name}: {mse}");
        }
    }
}
