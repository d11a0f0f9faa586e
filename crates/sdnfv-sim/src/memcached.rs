//! Figure 12: memcached request RTT versus request rate, comparing the
//! SDNFV application-aware proxy NF against a TwemProxy-style kernel proxy.
//!
//! Both proxies are modelled as single-server queues characterised by a
//! per-request service time plus a fixed network round-trip; the SDNFV
//! proxy's service time can be *calibrated* from the real
//! [`MemcachedProxyNf`](sdnfv_nf::nfs::MemcachedProxyNf) implementation by
//! timing it on generated request packets, tying the model to the code the
//! library actually ships. TwemProxy's service time reflects the costs the
//! paper attributes to it: interrupt-driven kernel networking, copies
//! between kernel and user space, and proxying both directions of the
//! connection.

use std::net::Ipv4Addr;

use sdnfv_nf::nfs::{Backend, MemcachedProxyNf};
use sdnfv_nf::{NetworkFunction, NfContext};
use sdnfv_proto::memcached::get_request;
use sdnfv_proto::packet::PacketBuilder;
use sdnfv_telemetry::HostClock;

use crate::series::TimeSeries;

/// A proxy model: fixed base RTT plus an M/M/1-style queueing delay around a
/// per-request service time.
#[derive(Debug, Clone)]
pub struct ProxyModel {
    /// Curve label.
    pub label: String,
    /// Per-request service time in nanoseconds.
    pub service_ns: f64,
    /// Base round-trip time (client → proxy → server → client) in
    /// microseconds, excluding queueing.
    pub base_rtt_us: f64,
}

impl ProxyModel {
    /// The TwemProxy baseline: tens of microseconds of kernel/user copies and
    /// socket handling per request, saturating around 90 k requests/s as in
    /// the paper.
    pub fn twemproxy() -> Self {
        ProxyModel {
            label: "TwemProxy".to_string(),
            service_ns: 11_000.0,
            base_rtt_us: 250.0,
        }
    }

    /// The SDNFV NF proxy with the default (paper-calibrated) service time:
    /// ~108 ns per request, i.e. ~9.2 M requests/s on one core.
    pub fn sdnfv_default() -> Self {
        ProxyModel {
            label: "SDNFV".to_string(),
            service_ns: 108.0,
            base_rtt_us: 150.0,
        }
    }

    /// An SDNFV proxy model whose service time is measured from the real
    /// `MemcachedProxyNf` implementation running over `samples` generated
    /// requests.
    pub fn sdnfv_calibrated(samples: usize) -> Self {
        let service_ns = measure_proxy_ns_per_request(samples.max(1));
        ProxyModel {
            label: "SDNFV".to_string(),
            service_ns,
            base_rtt_us: 150.0,
        }
    }

    /// The highest request rate (requests per second) the proxy sustains.
    pub fn capacity_rps(&self) -> f64 {
        1e9 / self.service_ns
    }

    /// Average RTT in microseconds at an offered rate of `rate_rps`
    /// requests per second. Beyond saturation the queue grows without bound;
    /// the model reports a steeply climbing RTT so the knee is visible in
    /// the figure, mirroring the overload behaviour the paper observes for
    /// TwemProxy.
    pub fn rtt_us(&self, rate_rps: f64) -> f64 {
        let rho = rate_rps / self.capacity_rps();
        if rho < 0.999 {
            self.base_rtt_us + self.service_ns / 1000.0 / (1.0 - rho)
        } else {
            // Overloaded: RTT grows with the amount of excess load.
            self.base_rtt_us + self.service_ns / 1000.0 * 1000.0 * rho
        }
    }
}

/// Measures the real NF's per-request processing cost in nanoseconds.
pub fn measure_proxy_ns_per_request(samples: usize) -> f64 {
    let mut proxy = MemcachedProxyNf::new(
        vec![
            Backend::new(Ipv4Addr::new(10, 10, 0, 1), 11211),
            Backend::new(Ipv4Addr::new(10, 10, 0, 2), 11211),
            Backend::new(Ipv4Addr::new(10, 10, 0, 3), 11211),
        ],
        1,
    );
    let mut ctx = NfContext::new(0);
    let packets: Vec<_> = (0..64)
        .map(|i| {
            PacketBuilder::udp()
                .src_ip([10, 0, 0, 9])
                .dst_ip([10, 10, 0, 100])
                .src_port(30000 + i as u16)
                .dst_port(11211)
                .payload(&get_request(i as u16, &format!("key:{i}")))
                .build()
        })
        .collect();
    let clock = HostClock::real();
    for i in 0..samples {
        let mut pkt = packets[i % packets.len()].clone();
        let _ = proxy.process_mut(&mut pkt, &mut ctx);
    }
    (clock.now_ns() as f64 / samples as f64).max(1.0)
}

/// Output of the Figure 12 sweep.
#[derive(Debug, Clone)]
pub struct MemcachedResult {
    /// RTT curve of the TwemProxy baseline.
    pub twemproxy: TimeSeries,
    /// RTT curve of the SDNFV proxy.
    pub sdnfv: TimeSeries,
    /// Sustainable request rate of each proxy (requests/s).
    pub twemproxy_capacity_rps: f64,
    /// Sustainable request rate of the SDNFV proxy (requests/s).
    pub sdnfv_capacity_rps: f64,
}

/// Runs the Figure 12 sweep over request rates given the two proxy models.
pub fn run(twemproxy: &ProxyModel, sdnfv: &ProxyModel, rates_krps: &[f64]) -> MemcachedResult {
    let mut twem_series = TimeSeries::new(&twemproxy.label);
    let mut sdnfv_series = TimeSeries::new(&sdnfv.label);
    for rate_krps in rates_krps {
        let rate = rate_krps * 1000.0;
        twem_series.push(*rate_krps, twemproxy.rtt_us(rate));
        sdnfv_series.push(*rate_krps, sdnfv.rtt_us(rate));
    }
    MemcachedResult {
        twemproxy: twem_series,
        sdnfv: sdnfv_series,
        twemproxy_capacity_rps: twemproxy.capacity_rps(),
        sdnfv_capacity_rps: sdnfv.capacity_rps(),
    }
}

/// The paper's Figure 12: request rates from 10 k to 10 M requests/s
/// (log-spaced), default proxy models.
pub fn figure12() -> MemcachedResult {
    let mut rates = Vec::new();
    let mut rate = 10.0;
    while rate <= 10_000.0 {
        rates.push(rate);
        rates.push(rate * 2.0);
        rates.push(rate * 5.0);
        rate *= 10.0;
    }
    run(
        &ProxyModel::twemproxy(),
        &ProxyModel::sdnfv_default(),
        &rates,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdnfv_sustains_about_two_orders_of_magnitude_more() {
        let result = figure12();
        let ratio = result.sdnfv_capacity_rps / result.twemproxy_capacity_rps;
        assert!(
            (50.0..=200.0).contains(&ratio),
            "expected ~100x capacity ratio, got {ratio:.0}x"
        );
        // The paper's headline numbers: TwemProxy overloads around 90 k
        // req/s, SDNFV sustains around 9.2 M req/s.
        assert!((80_000.0..120_000.0).contains(&result.twemproxy_capacity_rps));
        assert!((8_000_000.0..11_000_000.0).contains(&result.sdnfv_capacity_rps));
    }

    #[test]
    fn twemproxy_rtt_blows_up_at_its_knee_while_sdnfv_stays_flat() {
        let result = figure12();
        // At 200 k req/s TwemProxy is far past saturation…
        let twem_at_200k = result.twemproxy.value_near(200.0).unwrap();
        let twem_at_10k = result.twemproxy.value_near(10.0).unwrap();
        assert!(twem_at_200k > twem_at_10k * 10.0);
        // …while the SDNFV proxy's RTT has barely moved.
        let sdnfv_at_200k = result.sdnfv.value_near(200.0).unwrap();
        let sdnfv_at_10k = result.sdnfv.value_near(10.0).unwrap();
        assert!(sdnfv_at_200k < sdnfv_at_10k * 1.5);
    }

    #[test]
    fn calibration_produces_a_sub_microsecond_service_time() {
        let model = ProxyModel::sdnfv_calibrated(5_000);
        assert!(
            model.service_ns < 20_000.0,
            "real NF proxy should process a request in well under 20µs, measured {} ns",
            model.service_ns
        );
        assert!(model.capacity_rps() > 50_000.0);
    }

    #[test]
    fn rtt_is_monotone_in_load_until_saturation() {
        let model = ProxyModel::twemproxy();
        let mut last = 0.0;
        for rate in [1_000.0, 10_000.0, 50_000.0, 80_000.0] {
            let rtt = model.rtt_us(rate);
            assert!(rtt >= last);
            last = rtt;
        }
    }
}
