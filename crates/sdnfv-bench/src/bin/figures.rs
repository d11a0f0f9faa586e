//! Regenerates every table and figure of the SDNFV paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sdnfv-bench --bin figures            # everything
//! cargo run --release -p sdnfv-bench --bin figures -- fig9    # one figure
//! ```
//!
//! Output is plain text: one block per figure with the same series the paper
//! plots.

use std::time::Duration;

use sdnfv_bench::{build_host, measure_latency, measure_throughput_gbps, Composition, Workload};
use sdnfv_placement::{
    DivisionSolver, GreedySolver, OptimalSolver, PlacementProblem, PlacementSolver,
};
use sdnfv_sim::{ant, ddos, flow_churn, memcached, ovs, video};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| which.is_empty() || which.iter().any(|w| w == name || w == "all");

    if want("fig1") {
        figure1();
    }
    if want("fig5") {
        figure5();
    }
    if want("table2") {
        table2();
    }
    if want("fig6") {
        figure6();
    }
    if want("fig7") {
        figure7();
    }
    if want("micro") {
        micro_flow_ops();
    }
    if want("fig8") {
        figure8();
    }
    if want("fig9") {
        figure9();
    }
    if want("fig10") {
        figure10();
    }
    if want("fig11") {
        figure11();
    }
    if want("fig12") {
        figure12();
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn figure1() {
    header("Figure 1: OVS throughput vs % of packets sent to the SDN controller");
    let curves = ovs::figure1();
    println!(
        "{:>8} {:>16} {:>16}",
        "% to ctrl", &curves[0].label, &curves[1].label
    );
    for i in 0..curves[0].points.len() {
        println!(
            "{:>8.0} {:>16.3} {:>16.3}",
            curves[0].points[i].0, curves[0].points[i].1, curves[1].points[i].1
        );
    }
}

fn figure5() {
    header("Figure 5: NF placement — max utilization vs flows, and scalability");
    let solvers: Vec<Box<dyn PlacementSolver>> = vec![
        Box::new(GreedySolver),
        Box::new(OptimalSolver::default()),
        Box::new(DivisionSolver::default()),
    ];
    println!("(left) maximum link / core utilization vs number of flows");
    println!(
        "{:>6} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11}",
        "flows", "greedy-link", "greedy-core", "opt-link", "opt-core", "div-link", "div-core"
    );
    for flows in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let problem = PlacementProblem::paper_figure5(flows, 1.0, 16631);
        let mut row = format!("{flows:>6} |");
        for (i, solver) in solvers.iter().enumerate() {
            let report = solver.solve(&problem).utilization(&problem);
            row.push_str(&format!(
                " {:>11.3} {:>11.3} {}",
                report.max_link_utilization,
                report.max_core_utilization,
                if i < 2 { "|" } else { "" }
            ));
        }
        println!("{row}");
    }
    println!("\n(right) flows fully accommodated vs capacity scale (1x, 2x, 5x, 10x)");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "scale", "greedy", "optimal", "division"
    );
    for scale in [1.0f64, 2.0, 5.0, 10.0] {
        let mut row = format!("{scale:>8.0}");
        for solver in &solvers {
            let mut supported = 0;
            let mut flows = 5;
            while flows <= 400 {
                let problem = PlacementProblem::paper_figure5(flows, scale, 16631);
                if solver.solve(&problem).placed_flows() == flows {
                    supported = flows;
                    flows += if flows < 60 { 5 } else { 20 };
                } else {
                    break;
                }
            }
            row.push_str(&format!(" {supported:>10}"));
        }
        println!("{row}");
    }
}

fn table2() {
    header("Table 2: round-trip latency (µs), no-op NFs");
    println!("{:<18} {:>8} {:>8} {:>8}", "#VM", "Avg", "Min", "Max");
    let configurations: Vec<(String, usize, Composition)> = vec![
        ("0VM (forwarder)".to_string(), 0, Composition::Sequential),
        ("1VM".to_string(), 1, Composition::Sequential),
        ("2VM (parallel)".to_string(), 2, Composition::Parallel),
        ("3VM (parallel)".to_string(), 3, Composition::Parallel),
        ("2VM (sequential)".to_string(), 2, Composition::Sequential),
        ("3VM (sequential)".to_string(), 3, Composition::Sequential),
    ];
    for (label, nfs, composition) in configurations {
        let host = build_host(nfs, composition, Workload::NoOp);
        let sample = measure_latency(&host, 2_000, 1000);
        println!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2}",
            label,
            sample.avg(),
            sample.min(),
            sample.max()
        );
        host.shutdown();
    }
}

fn figure6() {
    header("Figure 6: latency CDF with compute-intensive NFs (µs at P10/P50/P90/P99)");
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8}",
        "configuration", "P10", "P50", "P90", "P99"
    );
    let configurations: Vec<(String, usize, Composition)> = vec![
        ("1VM".to_string(), 1, Composition::Sequential),
        ("2VM (parallel)".to_string(), 2, Composition::Parallel),
        ("3VM (parallel)".to_string(), 3, Composition::Parallel),
        ("2VM (sequential)".to_string(), 2, Composition::Sequential),
        ("3VM (sequential)".to_string(), 3, Composition::Sequential),
    ];
    for (label, nfs, composition) in configurations {
        let host = build_host(nfs, composition, Workload::Compute(60));
        let sample = measure_latency(&host, 1_500, 1000);
        println!(
            "{:<18} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            label,
            sample.quantile(0.10),
            sample.quantile(0.50),
            sample.quantile(0.90),
            sample.quantile(0.99)
        );
        host.shutdown();
    }
}

fn figure7() {
    header("Figure 7: throughput (Gbps) vs packet size");
    println!(
        "{:>6} {:>14} {:>10} {:>16} {:>18}",
        "size", "0VM(forward)", "1VM", "2VM(parallel)", "2VM(sequential)"
    );
    for size in [64usize, 128, 256, 512, 1024] {
        let mut row = format!("{size:>6}");
        for (nfs, composition, width) in [
            (0usize, Composition::Sequential, 14),
            (1, Composition::Sequential, 10),
            (2, Composition::Parallel, 16),
            (2, Composition::Sequential, 18),
        ] {
            let host = build_host(nfs, composition, Workload::NoOp);
            let gbps = measure_throughput_gbps(&host, size, Duration::from_millis(400));
            row.push_str(&format!(" {gbps:>width$.2}", width = width));
            host.shutdown();
        }
        println!("{row}");
    }
}

fn micro_flow_ops() {
    header("§5.1 micro-measurements: flow table lookup, SDN lookup");
    use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
    use sdnfv_proto::flow::{FlowKey, IpProtocol};
    use std::net::Ipv4Addr;
    use std::time::Instant;

    let table = SharedFlowTable::new();
    for service in 1..=8u32 {
        table.insert(FlowRule::new(
            FlowMatch::at_step(ServiceId::new(service)),
            vec![
                Action::ToService(ServiceId::new(service + 1)),
                Action::ToPort(1),
            ],
        ));
    }
    let key = FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000,
        80,
        IpProtocol::Udp,
    );
    const N: u32 = 500_000;
    let start = Instant::now();
    for i in 0..N {
        let step = RulePort::Service(ServiceId::new(1 + (i % 8)));
        std::hint::black_box(table.lookup(step, &key));
    }
    let lookup_ns = start.elapsed().as_nanos() as f64 / f64::from(N);

    let controller = sdnfv_control::SdnController::default();
    println!("flow table lookup:        {lookup_ns:>10.0} ns   (paper: ~30 ns)");
    println!(
        "SDN controller lookup:    {:>10.0} ns   (paper: ~31 ms, modelled)",
        controller.service_time_ns()
    );
}

fn print_series(series: &[&sdnfv_sim::TimeSeries], x_label: &str, sample_every: usize) {
    print!("{x_label:>10}");
    for s in series {
        print!(" {:>14}", s.label);
    }
    println!();
    let len = series[0].points.len();
    for i in (0..len).step_by(sample_every.max(1)) {
        print!("{:>10.1}", series[0].points[i].0);
        for s in series {
            print!(
                " {:>14.2}",
                s.points.get(i).map(|p| p.1).unwrap_or(f64::NAN)
            );
        }
        println!();
    }
}

fn figure8() {
    header("Figure 8: ant flow detection — per-flow latency (µs) over time");
    let result = ant::figure8();
    print_series(&[&result.flow1_latency, &result.flow2_latency], "t (s)", 20);
    println!("reroutes issued at: {:?}", result.reroute_times);
}

fn figure9() {
    header("Figure 9: DDoS detection and scrubbing — traffic (Gbps) over time");
    let result = ddos::figure9();
    print_series(&[&result.incoming, &result.outgoing], "t (s)", 20);
    println!(
        "attack detected at t={:.1}s; scrubber VM active at t={:.1}s (boot ≈7.75s)",
        result.detection_secs.unwrap_or(f64::NAN),
        result.scrubber_active_secs.unwrap_or(f64::NAN)
    );
}

fn figure10() {
    header("Figure 10: output flows/s vs new flows/s");
    let result = flow_churn::figure10();
    print_series(&[&result.sdn, &result.sdnfv], "new fl/s", 1);
}

fn figure11() {
    header("Figure 11: output packets/s around a policy change (throttle 60–240 s)");
    let result = video::figure11();
    print_series(&[&result.offered, &result.sdnfv, &result.sdn], "t (s)", 20);
}

fn figure12() {
    header("Figure 12: memcached RTT (µs) vs request rate (k req/s)");
    let result = memcached::figure12();
    print_series(&[&result.twemproxy, &result.sdnfv], "k req/s", 1);
    println!(
        "capacity: TwemProxy ≈ {:.0}k req/s, SDNFV ≈ {:.1}M req/s ({}x)",
        result.twemproxy_capacity_rps / 1e3,
        result.sdnfv_capacity_rps / 1e6,
        (result.sdnfv_capacity_rps / result.twemproxy_capacity_rps).round()
    );
    println!(
        "measured NF proxy cost: {:.0} ns/request",
        memcached::measure_proxy_ns_per_request(100_000)
    );
}
