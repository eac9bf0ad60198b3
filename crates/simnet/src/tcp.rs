//! Flow-level TCP throughput model.
//!
//! The paper's §7 works through exactly these effects:
//!
//! * **Buffer/window limit** — "Buffer size in KB = Bandwidth (Mbs) * Latency
//!   (ms) * 1024/1000/8": a connection can never exceed `window / RTT`.
//!   They chose 1 MB buffers for 10–20 ms RTTs at 200–500 Mb/s.
//! * **Loss limit** — on lossy paths a single TCP stream is bounded by the
//!   Mathis steady-state formula `MSS·C / (RTT·√p)`; this is why parallel
//!   streams (which multiply the bound) helped, citing Qiu et al. \[15\].
//! * **Slow start** — the GridFTP implementation at SC'2000 tore down and
//!   rebuilt TCP connections between files, paying connection setup plus a
//!   slow-start ramp each time; the observed "frequent drop in bandwidth to
//!   relatively low levels" in Figure 8 motivated data-channel caching.

use crate::time::SimDuration;

/// Maximum TCP segment size in bytes (standard Ethernet MTU minus headers).
pub const MSS: f64 = 1460.0;
/// MSS with jumbo frames.
pub const MSS_JUMBO: f64 = 8960.0;
/// Mathis constant for TCP Reno with delayed ACKs.
pub const MATHIS_C: f64 = 1.22;
/// Initial congestion window at connection start (RFC 2581-era: up to 2 MSS;
/// we use 2 segments).
pub const INITIAL_WINDOW: f64 = 2.0 * MSS;

/// Static parameters of one TCP connection for the flow model.
#[derive(Debug, Clone, Copy)]
pub struct TcpParams {
    /// Socket buffer (window) size in bytes; caps in-flight data.
    pub window: f64,
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Path packet-loss probability.
    pub loss: f64,
    /// Segment size in bytes.
    pub mss: f64,
}

impl TcpParams {
    pub fn new(window: f64, rtt: SimDuration, loss: f64) -> Self {
        TcpParams {
            window,
            rtt,
            loss,
            mss: MSS,
        }
    }

    /// Window-limited throughput bound: `window / RTT` (bytes/sec).
    pub fn window_limit(&self) -> f64 {
        let rtt = self.rtt.as_secs_f64();
        if rtt <= 0.0 {
            f64::INFINITY
        } else {
            self.window / rtt
        }
    }

    /// Mathis steady-state loss-limited throughput bound (bytes/sec):
    /// `MSS * C / (RTT * sqrt(p))`. Infinite when the path is loss-free.
    pub fn loss_limit(&self) -> f64 {
        let rtt = self.rtt.as_secs_f64();
        if self.loss <= 0.0 || rtt <= 0.0 {
            f64::INFINITY
        } else {
            self.mss * MATHIS_C / (rtt * self.loss.sqrt())
        }
    }

    /// Combined per-connection ceiling.
    pub fn rate_cap(&self) -> f64 {
        self.window_limit().min(self.loss_limit())
    }
}

/// The paper's §7 buffer-sizing rule of thumb, translated to bytes:
/// `bandwidth (bytes/s) * latency (s)` — the bandwidth-delay product.
pub fn bandwidth_delay_product(bandwidth_bytes_per_sec: f64, rtt: SimDuration) -> f64 {
    bandwidth_bytes_per_sec * rtt.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_limit_matches_paper_formula() {
        // Paper: 1 MB buffer over 15 ms RTT ≈ 533 Mb/s ceiling — consistent
        // with their 200–500 Mb/s expectation.
        let p = TcpParams::new(1_048_576.0, SimDuration::from_millis(15), 0.0);
        let mbps = p.window_limit() * 8.0 / 1e6;
        assert!((mbps - 559.2).abs() < 1.0, "got {mbps}");
    }

    #[test]
    fn loss_limit_decreases_with_loss() {
        let lossy = TcpParams::new(f64::INFINITY, SimDuration::from_millis(20), 0.01);
        let lossier = TcpParams::new(f64::INFINITY, SimDuration::from_millis(20), 0.04);
        // Mathis: rate ∝ 1/sqrt(p): 4x loss → half rate.
        assert!((lossy.loss_limit() / lossier.loss_limit() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_loss_means_no_loss_limit() {
        let p = TcpParams::new(65536.0, SimDuration::from_millis(10), 0.0);
        assert_eq!(p.loss_limit(), f64::INFINITY);
        assert_eq!(p.rate_cap(), p.window_limit());
    }

    #[test]
    fn rate_cap_is_min_of_bounds() {
        let p = TcpParams::new(1e6, SimDuration::from_millis(100), 0.05);
        assert_eq!(p.rate_cap(), p.window_limit().min(p.loss_limit()));
        assert!(p.rate_cap() <= p.window_limit());
        assert!(p.rate_cap() <= p.loss_limit());
    }

    #[test]
    fn bdp_matches_paper_example() {
        // Paper example: ~500 Mb/s * 16 ms ≈ 1 MB.
        let bdp = bandwidth_delay_product(500e6 / 8.0, SimDuration::from_millis(16));
        assert!((bdp - 1e6).abs() < 5e4, "got {bdp}");
    }
}
