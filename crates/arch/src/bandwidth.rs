//! External-memory bandwidth model.
//!
//! The paper evaluates the accelerators with on-chip traffic as the
//! reusability proxy (Fig. 17) and DRAM accesses per operation
//! (Table 7), but stops short of the system-level consequence: with a
//! finite DRAM bandwidth, an engine's *achievable* throughput is capped
//! by `bandwidth / bytes-per-op`. This module holds that bandwidth; the
//! roofline arithmetic is `flexsim_obs::roofline::classify`, which the
//! extension experiments (`flexsim ext_roofline`, `ext_batching`) and
//! `flexsim profile` feed with [`DramInterface::words_per_second`].

/// Bytes per 16-bit word.
const WORD_BYTES: f64 = 2.0;

/// A DRAM interface with a fixed sustained bandwidth.
///
/// # Example
///
/// ```
/// use flexsim_arch::bandwidth::DramInterface;
///
/// let dram = DramInterface::ddr3_style();
/// assert!(dram.bandwidth_gbps() > 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramInterface {
    bandwidth_gbps: f64,
}

impl DramInterface {
    /// Creates an interface with `bandwidth_gbps` GB/s of sustained
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        DramInterface { bandwidth_gbps }
    }

    /// A single-channel DDR3-1600-style interface (~12.8 GB/s peak,
    /// ~6.4 GB/s sustained) — the class of memory system contemporary
    /// with the paper's 65 nm accelerators.
    pub fn ddr3_style() -> Self {
        DramInterface::new(6.4)
    }

    /// Sustained bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// Words per second this interface sustains.
    pub fn words_per_second(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / WORD_BYTES
    }
}

impl Default for DramInterface {
    fn default() -> Self {
        DramInterface::ddr3_style()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTraffic;
    use flexsim_obs::roofline::{classify, Bound, LayerRoofline};

    /// `macs` MACs moving `traffic` over `dram` under a `compute_gops`
    /// compute roof.
    fn roof(
        dram: DramInterface,
        compute_gops: f64,
        traffic: DramTraffic,
        macs: u64,
    ) -> LayerRoofline {
        classify(
            2.0 * macs as f64,
            traffic.total() as f64,
            dram.words_per_second(),
            compute_gops,
        )
    }

    #[test]
    fn roofline_scales_with_bandwidth() {
        let traffic = DramTraffic {
            reads: 1_000_000,
            writes: 0,
        };
        let slow = roof(DramInterface::new(1.0), f64::INFINITY, traffic, 10_000_000);
        let fast = roof(DramInterface::new(4.0), f64::INFINITY, traffic, 10_000_000);
        assert!((fast.bandwidth_gops / slow.bandwidth_gops - 4.0).abs() < 1e-9);
        // 1 GB/s is 0.5 G words/s; 20 ops per word.
        assert!((slow.bandwidth_gops - 10.0).abs() < 1e-9);
    }

    #[test]
    fn high_reuse_means_compute_bound() {
        // 0.005 acc/op (FlexFlow-class reuse): a 512-GOPS engine needs
        // only ~2.6 GW/s... well under DDR3.
        let macs = 100_000_000u64;
        let traffic = DramTraffic {
            reads: 800_000,
            writes: 200_000,
        };
        let p = roof(DramInterface::ddr3_style(), 512.0, traffic, macs);
        assert_eq!(p.bound, Bound::Compute);
        assert_eq!(p.achievable_gops, 512.0);
    }

    #[test]
    fn no_reuse_means_memory_bound() {
        // One word per op (Tiling-style synapse streaming straight from
        // DRAM would look like this).
        let macs = 1_000_000u64;
        let traffic = DramTraffic {
            reads: 2_000_000,
            writes: 0,
        };
        let p = roof(DramInterface::ddr3_style(), 512.0, traffic, macs);
        assert_eq!(p.bound, Bound::Bandwidth);
        assert!(p.achievable_gops < 10.0);
    }

    #[test]
    fn zero_traffic_is_unbounded() {
        let p = roof(
            DramInterface::ddr3_style(),
            100.0,
            DramTraffic::default(),
            10,
        );
        assert_eq!(p.bound, Bound::Compute);
        assert!(p.bandwidth_gops.is_infinite());
        assert_eq!(p.achievable_gops, 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = DramInterface::new(0.0);
    }
}
