//! Figure 11: reacting to a mid-stream policy change, SDNFV versus SDN.
//!
//! A population of video flows (mean lifetime 40 s) streams through the
//! host. From t = 60 s to t = 240 s the operator's policy requires all video
//! traffic to be transcoded down to half its rate.
//!
//! * In **SDNFV**, the Policy Engine NF sits on the data path: when the
//!   policy flips it issues `RequestMe` to pull the already-established
//!   flows back through itself and then redirects each to the transcoder, so
//!   the output rate drops to the target almost immediately (and recovers
//!   immediately when the window ends).
//! * In the **SDN** baseline the policy logic lives in the controller, which
//!   only sees the first packets of *new* flows; existing flows keep their
//!   old rules until they terminate, so the output rate only converges to
//!   the target as flows naturally churn (≈40 s time constant).

use sdnfv_dataplane::{NfManager, PacketOutcome};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId};
use sdnfv_nf::nfs::{PolicyEngineNf, PolicyHandle, TranscoderNf, VideoDetectorNf};
use sdnfv_nf::Verdict;
use sdnfv_proto::http::response_with_content_type;
use sdnfv_proto::packet::{Packet, PacketBuilder};

use crate::series::TimeSeries;

/// SplitMix64: the seeded source of the scenario's flow lifetimes.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[low, high)`: the 53 high bits of one draw
    /// make a unit value in `[0, 1)`, scaled onto the range.
    pub(crate) fn f64_in(&mut self, low: f64, high: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + (high - low) * unit
    }
}

/// Configuration of the Figure 11 scenario.
#[derive(Debug, Clone)]
pub struct VideoExperiment {
    /// Total duration in seconds (350 s in the paper's plot).
    pub duration_secs: f64,
    /// Simulation step in seconds.
    pub step_secs: f64,
    /// Start of the throttling window (60 s).
    pub throttle_start_secs: f64,
    /// End of the throttling window (240 s).
    pub throttle_end_secs: f64,
    /// Number of concurrent video flows (400 in the paper; scaled down here
    /// with `packets_per_flow_per_sec` adjusted so the totals match).
    pub concurrent_flows: usize,
    /// Mean flow lifetime in seconds (40 s in the paper).
    pub mean_lifetime_secs: f64,
    /// Packets per second each flow contributes to the simulation.
    pub packets_per_flow_per_sec: f64,
    /// Random seed for flow lifetimes.
    pub seed: u64,
}

impl Default for VideoExperiment {
    fn default() -> Self {
        VideoExperiment {
            duration_secs: 350.0,
            step_secs: 1.0,
            throttle_start_secs: 60.0,
            throttle_end_secs: 240.0,
            concurrent_flows: 60,
            mean_lifetime_secs: 40.0,
            packets_per_flow_per_sec: 3.0,
            seed: 11,
        }
    }
}

/// Output of the Figure 11 scenario.
#[derive(Debug, Clone)]
pub struct VideoResult {
    /// Output packet rate of the SDNFV deployment over time.
    pub sdnfv: TimeSeries,
    /// Output packet rate of the SDN baseline over time.
    pub sdn: TimeSeries,
    /// Offered packet rate over time (the no-throttling reference).
    pub offered: TimeSeries,
}

struct SimFlow {
    src_port: u16,
    expires_at: f64,
    sent_header: bool,
    /// SDN baseline: the rule decided when the flow was created.
    sdn_transcoded: bool,
}

const VD: ServiceId = ServiceId::new(1);
const PE: ServiceId = ServiceId::new(2);
const TC: ServiceId = ServiceId::new(3);
const EGRESS: u16 = 1;

impl VideoExperiment {
    fn build_manager(&self, policy: &PolicyHandle) -> NfManager {
        let mut manager = NfManager::default();
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(VD)],
        ));
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(VD),
            vec![Action::ToService(PE), Action::ToPort(EGRESS)],
        ));
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(PE),
            vec![Action::ToPort(EGRESS), Action::ToService(TC)],
        ));
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(TC),
            vec![Action::ToPort(EGRESS)],
        ));
        manager.add_nf(VD, Box::new(VideoDetectorNf::new(Verdict::ToPort(EGRESS))));
        manager.add_nf(
            PE,
            Box::new(PolicyEngineNf::new(
                PE,
                VD,
                TC,
                Action::ToPort(EGRESS),
                policy.clone(),
            )),
        );
        manager.add_nf(TC, Box::new(TranscoderNf::halving()));
        manager
    }

    fn header_packet(&self, src_port: u16) -> Packet {
        PacketBuilder::tcp()
            .src_ip([10, 7, 0, 1])
            .dst_ip([10, 7, 1, 1])
            .src_port(src_port)
            .dst_port(40000)
            .payload(&response_with_content_type(200, "video/mp4"))
            .ingress_port(0)
            .build()
    }

    fn data_packet(&self, src_port: u16) -> Packet {
        PacketBuilder::tcp()
            .src_ip([10, 7, 0, 1])
            .dst_ip([10, 7, 1, 1])
            .src_port(src_port)
            .dst_port(40000)
            .total_size(1000)
            .ingress_port(0)
            .build()
    }

    /// Runs the scenario.
    pub fn run(&self) -> VideoResult {
        let policy = PolicyHandle::new();
        let mut manager = self.build_manager(&policy);
        let mut rng = SplitMix64::new(self.seed);
        let mut next_port: u16 = 10_000;
        let lifetime = |rng: &mut SplitMix64| -> f64 {
            // Exponential lifetimes with the configured mean.
            let u = rng.f64_in(0.0001, 1.0);
            -self.mean_lifetime_secs * u.ln()
        };
        let mut flows: Vec<SimFlow> = (0..self.concurrent_flows)
            .map(|_| {
                let f = SimFlow {
                    src_port: next_port,
                    expires_at: lifetime(&mut rng),
                    sent_header: false,
                    sdn_transcoded: false,
                };
                next_port += 1;
                f
            })
            .collect();

        let mut sdnfv = TimeSeries::new("SDNFV");
        let mut sdn = TimeSeries::new("SDN");
        let mut offered = TimeSeries::new("Offered");

        let steps = (self.duration_secs / self.step_secs).round() as usize;
        for step in 0..steps {
            let t = step as f64 * self.step_secs;
            let now_ns = (t * 1e9) as u64;
            let throttling = t >= self.throttle_start_secs && t < self.throttle_end_secs;
            policy.set_throttle(throttling);

            // Replace expired flows with fresh ones; the SDN baseline decides
            // the new flow's treatment using the policy active right now.
            for flow in flows.iter_mut() {
                if t >= flow.expires_at {
                    flow.src_port = next_port;
                    next_port = next_port.wrapping_add(1).max(10_000);
                    flow.expires_at = t + lifetime(&mut rng);
                    flow.sent_header = false;
                    flow.sdn_transcoded = throttling;
                }
            }

            let packets_per_flow =
                (self.packets_per_flow_per_sec * self.step_secs).round() as usize;
            let mut out_sdnfv = 0usize;
            let mut out_sdn = 0.0f64;
            let mut offered_packets = 0usize;
            for flow in flows.iter_mut() {
                for i in 0..packets_per_flow {
                    offered_packets += 1;
                    let pkt = if !flow.sent_header && i == 0 {
                        flow.sent_header = true;
                        self.header_packet(flow.src_port)
                    } else {
                        self.data_packet(flow.src_port)
                    };
                    if let PacketOutcome::Transmitted { .. } =
                        manager.process_packet(pkt, now_ns + i as u64)
                    {
                        out_sdnfv += 1;
                    }
                }
                // SDN baseline: transcoded flows emit half their packets.
                let factor = if flow.sdn_transcoded { 0.5 } else { 1.0 };
                out_sdn += packets_per_flow as f64 * factor;
            }

            sdnfv.push(t, out_sdnfv as f64 / self.step_secs);
            sdn.push(t, out_sdn / self.step_secs);
            offered.push(t, offered_packets as f64 / self.step_secs);
        }

        VideoResult {
            sdnfv,
            sdn,
            offered,
        }
    }
}

/// Runs the paper's Figure 11 configuration.
pub fn figure11() -> VideoResult {
    VideoExperiment::default().run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdnfv_tracks_the_policy_window_immediately() {
        let result = figure11();
        let before = result.sdnfv.mean_between(30.0, 58.0).unwrap();
        let shortly_after = result.sdnfv.mean_between(62.0, 80.0).unwrap();
        let deep_in_window = result.sdnfv.mean_between(150.0, 230.0).unwrap();
        let after_window = result.sdnfv.mean_between(260.0, 340.0).unwrap();
        // Output halves promptly once throttling starts…
        assert!(
            shortly_after < before * 0.7,
            "SDNFV should throttle quickly: {shortly_after:.0} vs {before:.0}"
        );
        assert!(deep_in_window < before * 0.65);
        // …and recovers after the window ends.
        assert!(after_window > before * 0.85);
    }

    #[test]
    fn sdn_lags_behind_the_policy_change() {
        let result = figure11();
        let before = result.sdn.mean_between(30.0, 58.0).unwrap();
        let sdn_shortly_after = result.sdn.mean_between(62.0, 80.0).unwrap();
        let sdnfv_shortly_after = result.sdnfv.mean_between(62.0, 80.0).unwrap();
        let sdn_late_in_window = result.sdn.mean_between(180.0, 235.0).unwrap();
        // Just after the change the SDN baseline still emits close to the
        // unthrottled rate (only new flows are affected) …
        assert!(
            sdn_shortly_after > sdnfv_shortly_after * 1.15,
            "SDN ({sdn_shortly_after:.0}) should lag behind SDNFV ({sdnfv_shortly_after:.0})"
        );
        // … but eventually converges toward the throttled level.
        assert!(sdn_late_in_window < before * 0.75);
    }

    #[test]
    fn offered_rate_is_stable() {
        let result = figure11();
        let early = result.offered.mean_between(10.0, 50.0).unwrap();
        let late = result.offered.mean_between(250.0, 340.0).unwrap();
        assert!((early - late).abs() / early < 0.05);
    }
}
