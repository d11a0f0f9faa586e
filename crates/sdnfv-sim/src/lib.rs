//! Scenario simulators for the SDNFV evaluation (paper §5).
//!
//! The microbenchmarks (Table 2, Figures 6 and 7) run on the real threaded
//! data plane in [`sdnfv-dataplane`](sdnfv_dataplane); everything that spans
//! minutes of experiment time or needs an explicit controller / VM-boot
//! model runs here instead, against the same flow tables, network functions
//! and control-plane components, but under virtual time:
//!
//! * [`ovs`] — Figure 1: software-switch throughput collapse as the share of
//!   packets punted to the SDN controller grows;
//! * [`ant`] — Figure 8: ant/elephant detection rerouting a flow onto the
//!   fast link and the latency effect over time;
//! * [`ddos`] — Figure 9: cross-flow DDoS detection, scrubber VM launch
//!   (with the paper's 7.75 s boot time) and traffic scrubbed thereafter;
//! * [`flow_churn`] — Figure 10: sustainable output flow rate as the new
//!   flow arrival rate grows, SDN-mediated vs SDNFV;
//! * [`video`] — Figure 11: reaction of the video pipeline to a mid-stream
//!   policy change, SDNFV vs SDN;
//! * [`memcached`] — Figure 12: request RTT versus offered load for the
//!   SDNFV memcached proxy against a TwemProxy-style kernel proxy.
//!
//! Every scenario returns plain data (time series / sweep points) that the
//! `figures` binary in `sdnfv-bench` prints, and asserts nothing itself —
//! the tests in each module check the qualitative shapes the paper reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ant;
pub mod ddos;
pub mod flow_churn;
pub mod memcached;
pub mod ovs;
pub mod series;
pub mod video;

pub use series::TimeSeries;

#[cfg(test)]
mod tests {
    use crate::video::SplitMix64;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..10 {
            assert_eq!(a.f64_in(0.0, 1000.0), b.f64_in(0.0, 1000.0));
        }
        // The figure-11 lifetimes are drawn from this exact stream: a
        // change to the generator's arithmetic moves the figure.
        let mut rng = SplitMix64::new(42);
        let draws: Vec<u64> = (0..3).map(|_| rng.f64_in(0.0001, 1.0).to_bits()).collect();
        assert_eq!(
            draws,
            [
                0x3fe7_bb1c_7767_400a,
                0x3fc4_7ab2_51b7_c576,
                0x3fd1_d5c8_6961_e769
            ]
        );
    }

    #[test]
    fn f64_range_respected() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..1000 {
            let v = rng.f64_in(0.0001, 1.0);
            assert!((0.0001..1.0).contains(&v));
        }
    }
}
