//! One workload, one process: the end-to-end run (`--trace 0`) and the
//! traced per-layer run (`--trace 1`).

use std::time::Instant;

use sdnfv_dataplane::HostStatsSnapshot;

use crate::check::Checker;
use crate::drive::{lone_packet_latencies, pump, span_names, Prebuilt, Pumped};
use crate::gen::{Traffic, BURST};
use crate::json::Json;
use crate::kernels::{self, Kernels};
use crate::stats::{median, percentile_sorted, quartile_spread, sort};
use crate::trace::{NoTrace, SpanLog, SpanSummary};
use crate::workload::{start, Chain, Drive, Rig, Spec, CHURN_TABLE_BOUND};

/// Work sizes of a run. Everything here is a fixed count, never a time, so
/// that set-up is work-sized and the traced run repeats exactly.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Packets pumped through a fresh host before anything is timed.
    pub warmup_packets: usize,
    /// Times the host is set up and warmed; `setup_s` is the median.
    pub setup_reps: usize,
    /// Lone-packet latency samples.
    pub lat_samples: usize,
    /// Least number of timed windows.
    pub min_windows: usize,
    /// Most bytes pre-built for one window (bounds memory, and how much
    /// of a window's speed is DRAM streaming).
    pub max_window_bytes: usize,
    /// Packets of the traced run per second of `--seconds`.
    pub traced_packets_per_second: usize,
    /// Passes over the input pool per kernel repetition.
    pub kernel_passes: usize,
    /// Rounds of raw spans written to the trace file.
    pub trace_rounds_written: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        warmup_packets: 200_000,
        setup_reps: 5,
        lat_samples: 20_000,
        min_windows: 5,
        max_window_bytes: 128 << 20,
        traced_packets_per_second: 100_000,
        kernel_passes: 4,
        trace_rounds_written: 2_048,
    };
    pub const SMOKE: Sizes = Sizes {
        warmup_packets: 20_000,
        setup_reps: 1,
        lat_samples: 2_000,
        min_windows: 2,
        max_window_bytes: 16 << 20,
        traced_packets_per_second: 100_000,
        kernel_passes: 1,
        trace_rounds_written: 256,
    };
}

/// Rough heap cost of a pre-built packet beyond its frame bytes (the
/// `Packet` struct, the allocator's header, its slot in the burst).
const PACKET_OVERHEAD_BYTES: usize = 64;

/// Chunks the lone-packet latency samples are taken in.
const LAT_CHUNKS: usize = 20;

/// Traced segments of a traced run (and as many untraced ones).
const TRACE_SEGMENTS: usize = 4;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// A metric as reported: value, unit, and — where the run took several
/// samples — how many and how far apart their quartiles lie.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Interquartile distance over median of the run's own samples.
    pub spread: f64,
}

impl Metric {
    fn single(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 1,
            spread: 0.0,
        }
    }

    fn of_samples(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: median(samples),
            unit,
            samples: samples.len(),
            spread: quartile_spread(samples),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("value", self.value)
            .with("unit", self.unit)
            .with("samples", self.samples)
            .with("spread", self.spread)
    }
}

/// Everything a run found out.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not `correct` beyond failed packets.
    pub violations: Vec<String>,
    /// The metrics the contract names for this `--trace` value.
    pub metrics: Vec<Metric>,
    /// Further facts for the result file (drive mode, window shape, tail
    /// percentiles, per-service spans, the host's own stage histograms…).
    pub extra: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The last line of standard output, as the driver reads it.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for metric in &self.metrics {
            metrics.set(
                &metric.name,
                Json::obj()
                    .with("value", metric.value)
                    .with("unit", metric.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }

    /// The full record the ledger keeps for this run.
    pub fn detail(&self, spec: &Spec, request: &Request) -> Json {
        let mut metrics = Json::obj();
        for metric in &self.metrics {
            metrics.set(&metric.name, metric.to_json());
        }
        Json::obj()
            .with("workload", spec.name)
            .with("trace", request.trace)
            .with("seed", request.seed)
            .with("seconds", request.seconds)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "fail_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .with(
                "violations",
                self.violations
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("metrics", metrics)
            .with("extra", self.extra.clone())
    }
}

/// Threads this process may run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The marker written where a threaded number would otherwise stand: how
/// this workload scales over real threads was not measured here.
fn scaling_unmeasured(spec: &Spec) -> Json {
    Json::obj()
        .with("scaling", "unmeasured")
        .with("threads_needed", spec.threads_when_threaded())
        .with("nproc", nproc())
}

/// Why a workload cannot be measured threaded on this machine, if so.
pub fn threaded_refusal(spec: &Spec) -> Option<Json> {
    (spec.threads_when_threaded() > nproc()).then(|| scaling_unmeasured(spec))
}

pub fn run(spec: &Spec, request: &Request) -> Result<Outcome, String> {
    if request.trace {
        Ok(traced_run(spec, request))
    } else {
        end_to_end_run(spec, request)
    }
}

fn failures_json(checker: &Checker) -> Json {
    Json::Arr(
        checker
            .first_failures()
            .iter()
            .map(|f| Json::from(format!("{f:?}")))
            .collect(),
    )
}

/// Workload-specific state checks on a quiescent host.
fn check_host_state(spec: &Spec, rig: &Rig, violations: &mut Vec<String>) {
    if matches!(spec.chain, Chain::Ids) {
        let rules = rig.host.flow_table().len();
        if rules > CHURN_TABLE_BOUND {
            violations.push(format!(
                "flow table grew to {rules} rules (bound {CHURN_TABLE_BOUND}): pins are not evicted"
            ));
        }
    }
}

fn end_to_end_run(spec: &Spec, request: &Request) -> Result<Outcome, String> {
    let sizes = &request.sizes;
    if spec.drive == Drive::Threaded {
        if let Some(refusal) = threaded_refusal(spec) {
            return Err(format!(
                "{} is a threaded workload and this machine cannot run it: {}",
                spec.name,
                refusal.to_line()
            ));
        }
    }
    let mut traffic = Traffic::new(spec.traffic, request.seed);
    let flows = traffic.flow_keys().to_vec();
    let mut checker = Checker::new(spec.concurrent_flows());

    // Set-up, several times over: rules installed, host started, a fixed
    // count of packets pumped. The last host is the one measured.
    let mut setup_samples = Vec::with_capacity(sizes.setup_reps);
    let mut set_up = |traffic: &mut Traffic, checker: &mut Checker| {
        let prebuilt = Prebuilt::build(traffic, sizes.warmup_packets);
        let started = Instant::now();
        let rig = start(spec, spec.drive, &flows);
        let warm = pump(&rig, prebuilt, checker, &mut NoTrace);
        setup_samples.push(started.elapsed().as_secs_f64());
        (rig, warm)
    };
    let (mut rig, mut warm) = set_up(&mut traffic, &mut checker);
    for _ in 1..sizes.setup_reps {
        rig.host.shutdown();
        (rig, warm) = set_up(&mut traffic, &mut checker);
    }
    let mut rate = warm.pps();

    // Timed windows, each pre-built before its clock starts. Lone-packet
    // latency is sampled in chunks between the windows, evenly over the
    // measured time: taken in one go its 20 000 samples span well under a
    // second, and a short disturbance of the machine would colour all of
    // them.
    let window_secs = request.seconds / sizes.min_windows as f64;
    let max_window_packets = sizes.max_window_bytes / (spec.frame_len() + PACKET_OVERHEAD_BYTES);
    let lat_chunk = sizes.lat_samples.div_ceil(LAT_CHUNKS);
    let mut windows: Vec<Pumped> = Vec::new();
    let mut measured = 0.0;
    let mut latencies_ns: Vec<f64> = Vec::with_capacity(sizes.lat_samples);
    let mut chunk_medians_us: Vec<f64> = Vec::with_capacity(LAT_CHUNKS);
    loop {
        let done = windows.len() >= sizes.min_windows && measured >= request.seconds * 0.98;
        let chunks_due = if done {
            LAT_CHUNKS
        } else {
            (LAT_CHUNKS as f64 * measured / request.seconds) as usize
        };
        while chunk_medians_us.len() < chunks_due.min(LAT_CHUNKS) {
            let packets = traffic.next_egressing(lat_chunk);
            let chunk = lone_packet_latencies(&rig, packets, &mut checker);
            chunk_medians_us.push(median(&chunk) / 1_000.0);
            latencies_ns.extend(chunk);
        }
        if done || (checker.failed() > 0 && windows.len() >= sizes.min_windows) {
            break; // a failing run need not run long
        }
        let packets = ((rate * window_secs) as usize).clamp(BURST, max_window_packets);
        let prebuilt = Prebuilt::build(&mut traffic, packets);
        let pumped = pump(&rig, prebuilt, &mut checker, &mut NoTrace);
        measured += pumped.elapsed.as_secs_f64();
        rate = pumped.pps();
        windows.push(pumped);
    }
    let pps_samples: Vec<f64> = windows.iter().map(Pumped::pps).collect();
    // The gated latency is the median of all samples; its in-run spread is
    // taken over the chunks' medians.
    let mut sorted_ns = latencies_ns.clone();
    sort(&mut sorted_ns);

    let mut violations = Vec::new();
    check_host_state(spec, &rig, &mut violations);
    if latencies_ns.is_empty() {
        violations.push("no lone packet came back".to_string());
    }
    let stats = rig.host.stats().snapshot();
    let stage_p50s = host_stage_p50s(&rig);
    rig.host.shutdown();

    let metrics = vec![
        Metric::of_samples("pps", &pps_samples, "1/s"),
        Metric {
            value: median(&latencies_ns) / 1_000.0,
            ..Metric::of_samples("lat1_p50_us", &chunk_medians_us, "us")
        },
        Metric::of_samples("setup_s", &setup_samples, "s"),
    ];
    let extra = Json::obj()
        .with("drive", spec.drive.name())
        .with(
            "threads",
            if spec.drive == Drive::Threaded {
                spec.threads_when_threaded()
            } else {
                1
            },
        )
        .with("nproc", nproc())
        .with("windows", windows.len())
        .with("window_target_s", window_secs)
        .with(
            "window_packets",
            Json::nums(windows.iter().map(|w| w.packets as f64)),
        )
        .with("window_pps", Json::nums(pps_samples.iter().copied()))
        .with("measured_s", measured)
        .with(
            "throttled",
            windows.iter().map(|w| w.throttled).sum::<u64>(),
        )
        .with("lat1_samples", latencies_ns.len())
        .with("lat1_p99_us", percentile_sorted(&sorted_ns, 0.99) / 1_000.0)
        .with(
            "lat1_p999_us",
            percentile_sorted(&sorted_ns, 0.999) / 1_000.0,
        )
        .with("warmup_packets", sizes.warmup_packets)
        .with("setup_samples_s", Json::nums(setup_samples.iter().copied()))
        .with("host_stage_p50_ns", stage_p50s)
        .with("host_stats", stats_json(&stats))
        .with("first_failures", failures_json(&checker))
        .with(
            "threaded_chain",
            // A chain with NFs needs more threads than a small box has
            // cores; its threaded scaling is stated as unmeasured, never as
            // a number taken on oversubscribed cores.
            if spec.drive == Drive::Stepped {
                scaling_unmeasured(spec)
            } else {
                Json::Null
            },
        );
    Ok(Outcome {
        attempted: checker.attempted(),
        failed: checker.failed(),
        violations,
        metrics,
        extra,
    })
}

/// The host's own per-stage latency histograms (p50, ns) — printed beside
/// the outside numbers as a cross-check, never asserted. Under the virtual
/// clock they count rounds, so they only mean something threaded.
fn host_stage_p50s(rig: &Rig) -> Json {
    let report = rig.host.latency_report();
    let mut out = Json::obj();
    for (stage, histogram) in report.stages() {
        out.set(
            stage,
            Json::obj()
                .with("count", histogram.count())
                .with("p50_ns", histogram.p50()),
        );
    }
    out
}

fn stats_json(stats: &HostStatsSnapshot) -> Json {
    Json::obj()
        .with("received", stats.received)
        .with("transmitted", stats.transmitted)
        .with("dropped", stats.dropped)
        .with("overflow_drops", stats.overflow_drops)
        .with("throttled", stats.throttled)
        .with("controller_punts", stats.controller_punts)
        .with("parallel_dispatches", stats.parallel_dispatches)
        .with("nf_invocations", stats.nf_invocations)
        .with("nf_messages", stats.nf_messages)
        .with("rules_evicted_idle", stats.rules_evicted_idle)
        .with("nf_state_scrubbed", stats.nf_state_scrubbed)
}

/// How often one packet crosses each kernel's layer, from the host's own
/// counters over the traced segments. README.md derives each line.
struct Crossings {
    parse: f64,
    hash: f64,
    credit: f64,
    xfer32: f64,
    cache_get: f64,
    lookup: f64,
    insert_evict: f64,
    nf_service: f64,
    record: f64,
}

impl Crossings {
    fn of(spec: &Spec, nf_visits: f64, table_lookups: f64, pins: f64) -> Crossings {
        // A sequential visit ends with one completion hand-back; a parallel
        // fan-out hands back once for all of its NFs.
        let handbacks = match spec.chain {
            Chain::NoOp3 { parallel: true } => 1.0,
            _ => nf_visits,
        };
        Crossings {
            parse: 1.0,
            // Bucket tracker: once at admission, once at egress staging.
            hash: 2.0,
            credit: 1.0,
            // Ingress and egress rings, one NF input ring per visit, one
            // done ring per hand-back.
            xfer32: 2.0 + nf_visits + handbacks,
            // One lookup at ingress and one per hand-back; with 32 distinct
            // flows per burst the burst memo never answers, so each reaches
            // the cache.
            cache_get: 1.0 + handbacks,
            lookup: table_lookups,
            insert_evict: pins,
            nf_service: if spec.nf_count() > 0 { 1.0 } else { 0.0 },
            // ingress_wait, end_to_end, egress_wait.
            record: 3.0,
        }
    }
}

fn traced_run(spec: &Spec, request: &Request) -> Outcome {
    let sizes = &request.sizes;
    let mut traffic = Traffic::new(spec.traffic, request.seed);
    let flows = traffic.flow_keys().to_vec();
    let mut checker = Checker::new(spec.concurrent_flows());
    let rig = start(spec, Drive::Stepped, &flows);
    let warm = Prebuilt::build(&mut traffic, sizes.warmup_packets);
    pump(&rig, warm, &mut checker, &mut NoTrace);

    // Untraced and traced segments, alternating, all the same fixed size:
    // the same loop with and without the recorder.
    let segment_packets = ((sizes.traced_packets_per_second as f64 * request.seconds) as usize
        / TRACE_SEGMENTS)
        .max(BURST);
    let names = span_names(spec.service_labels());
    let rounds_hint = TRACE_SEGMENTS * (segment_packets.div_ceil(BURST) + 16);
    let mut log = SpanLog::new(names.clone(), rounds_hint * names.len() * 5 / 4);
    let stats_before = rig.host.stats().snapshot();
    let lookups_before = rig.host.flow_table().stats().lookups;
    let mut untraced: Vec<Pumped> = Vec::new();
    let mut traced: Vec<Pumped> = Vec::new();
    let mut traced_wall_ns = 0.0;
    for _ in 0..TRACE_SEGMENTS {
        let prebuilt = Prebuilt::build(&mut traffic, segment_packets);
        untraced.push(pump(&rig, prebuilt, &mut checker, &mut NoTrace));
        let prebuilt = Prebuilt::build(&mut traffic, segment_packets);
        let started = Instant::now();
        traced.push(pump(&rig, prebuilt, &mut checker, &mut log));
        traced_wall_ns += started.elapsed().as_nanos() as f64;
    }
    let stats_after = rig.host.stats().snapshot();
    let lookups_after = rig.host.flow_table().stats().lookups;
    let mut violations = Vec::new();
    check_host_state(spec, &rig, &mut violations);
    rig.host.shutdown();

    let all_packets: u64 = untraced.iter().chain(&traced).map(|p| p.packets).sum();
    let traced_packets: u64 = traced.iter().map(|p| p.packets).sum();
    let untraced_pps = median(&untraced.iter().map(Pumped::pps).collect::<Vec<_>>());
    let traced_pps = median(&traced.iter().map(Pumped::pps).collect::<Vec<_>>());
    let stepped_ns_per_pkt = 1e9 / untraced_pps;

    let summary = log.summary();
    let span_ns: u64 = summary.iter().map(|s| s.self_ns).sum();
    if span_ns as f64 > traced_wall_ns {
        violations.push(format!(
            "span self times ({span_ns} ns) exceed the traced pump calls ({traced_wall_ns} ns)"
        ));
    }

    let per_pkt = |n: u64| n as f64 / all_packets as f64;
    let crossings = Crossings::of(
        spec,
        per_pkt(stats_after.nf_invocations - stats_before.nf_invocations),
        per_pkt(lookups_after - lookups_before),
        per_pkt(stats_after.nf_messages - stats_before.nf_messages),
    );
    let kernels = kernels::run(spec, request.seed, sizes.kernel_passes);
    let metrics = traced_metrics(
        &summary,
        traced_packets,
        &kernels,
        &crossings,
        untraced_pps,
        traced_pps,
    );
    let covered_ns = covered_ns(&kernels, &crossings);
    if covered_ns > stepped_ns_per_pkt {
        violations.push(format!(
            "kernels x crossings ({covered_ns:.1} ns/pkt) exceed the stepped cost ({stepped_ns_per_pkt:.1} ns/pkt)"
        ));
    }

    let trace_path = write_trace(spec, request, &log, sizes.trace_rounds_written);
    let per_span: Vec<Json> = summary
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name.as_str())
                .with("calls", s.calls)
                .with("idle_ratio", s.idle_ratio())
                .with("ns_per_pkt", s.self_ns as f64 / traced_packets as f64)
                .with("allocs_per_pkt", s.allocs as f64 / traced_packets as f64)
        })
        .collect();
    let mut crossings_json = Json::obj();
    for (name, _, _, per_pkt) in kernel_rows(&kernels, &crossings) {
        crossings_json.set(name, per_pkt);
    }
    let extra = Json::obj()
        .with("drive", Drive::Stepped.name())
        .with("nproc", nproc())
        .with("segment_packets", segment_packets)
        .with("traced_packets", traced_packets)
        .with("untraced_pps", untraced_pps)
        .with("traced_pps", traced_pps)
        .with("spans", per_span)
        .with("spans_recorded", log.spans().len())
        .with("crossings_per_pkt", crossings_json)
        .with("cache_hit_ratio_kernel", kernels.cache_hit_ratio)
        .with(
            "trace_file",
            match trace_path {
                Ok(path) => Json::from(path),
                Err(error) => {
                    violations.push(format!("trace file not written: {error}"));
                    Json::Null
                }
            },
        )
        .with("first_failures", failures_json(&checker));
    Outcome {
        attempted: checker.attempted(),
        failed: checker.failed(),
        violations,
        metrics,
        extra,
    }
}

/// `ns_per_pkt` (self time), `calls`, `idle_ratio` and `allocs_per_pkt` of
/// each layer's span; the NF replicas are summed into `dataplane.nf` (the
/// result file keeps them apart as `dataplane.nf[<service>]`).
fn span_metrics(summary: &[SpanSummary], packets: u64) -> Vec<Metric> {
    let packets = packets.max(1) as f64;
    let total = |pick: &dyn Fn(&SpanSummary) -> bool| {
        let mut sum = SpanSummary {
            name: String::new(),
            calls: 0,
            idle_calls: 0,
            self_ns: 0,
            allocs: 0,
        };
        for s in summary.iter().filter(|s| pick(s)) {
            sum.calls += s.calls;
            sum.idle_calls += s.idle_calls;
            sum.self_ns += s.self_ns;
            sum.allocs += s.allocs;
        }
        sum
    };
    let mut metrics = Vec::new();
    for layer in [
        "dataplane.inject",
        "dataplane.worker",
        "dataplane.nf",
        "dataplane.egress",
    ] {
        let sum = total(&|s: &SpanSummary| {
            s.name == layer
                || s.name
                    .strip_prefix(layer)
                    .is_some_and(|r| r.starts_with('['))
        });
        metrics.push(Metric::single(
            format!("{layer}.ns_per_pkt"),
            sum.self_ns as f64 / packets,
            "ns",
        ));
        metrics.push(Metric::single(
            format!("{layer}.calls"),
            sum.calls as f64,
            "count",
        ));
        metrics.push(Metric::single(
            format!("{layer}.idle_ratio"),
            sum.idle_ratio(),
            "ratio",
        ));
        metrics.push(Metric::single(
            format!("{layer}.allocs_per_pkt"),
            sum.allocs as f64 / packets,
            "count",
        ));
    }
    // What the drive loop itself costs per packet: the root span's self time
    // (registering, checking, freeing, the recorder).
    let root = total(&|s: &SpanSummary| s.name == "burst");
    metrics.push(Metric::single(
        "harness.ns_per_pkt",
        root.self_ns as f64 / packets,
        "ns",
    ));
    metrics
}

/// Each kernel's name, unit suffix, cost and crossings per packet.
fn kernel_rows(k: &Kernels, c: &Crossings) -> [(&'static str, &'static str, f64, f64); 9] {
    [
        ("proto.parse", "ns", k.parse, c.parse),
        ("proto.hash", "ns", k.hash, c.hash),
        ("ring.xfer32", "ns_per_pkt", k.xfer32, c.xfer32),
        ("ring.credit", "ns", k.credit, c.credit),
        ("flowtable.lookup", "ns", k.lookup, c.lookup),
        (
            "flowtable.insert_evict",
            "ns",
            k.insert_evict,
            c.insert_evict,
        ),
        ("cache.get", "ns", k.cache_get, c.cache_get),
        ("nf.service", "ns_per_pkt", k.nf_service, c.nf_service),
        ("telemetry.record", "ns", k.record, c.record),
    ]
}

/// Per-packet nanoseconds the kernels account for: cost × crossings.
fn covered_ns(k: &Kernels, c: &Crossings) -> f64 {
    kernel_rows(k, c)
        .iter()
        .map(|(_, _, cost, crossings)| cost * crossings)
        .sum()
}

/// Every `per_layer` metric of `BENCHMARK.json`, in its order: the span
/// metrics, the stepped per-packet cost, each kernel's cost and its share
/// of that cost, what the kernels leave unattributed, and what tracing
/// itself costs.
fn traced_metrics(
    summary: &[SpanSummary],
    traced_packets: u64,
    kernels: &Kernels,
    crossings: &Crossings,
    untraced_pps: f64,
    traced_pps: f64,
) -> Vec<Metric> {
    let whole_ns = 1e9 / untraced_pps;
    let mut metrics = span_metrics(summary, traced_packets);
    metrics.push(Metric::single("stepped.ns_per_pkt", whole_ns, "ns"));
    for (name, suffix, cost, crossings) in kernel_rows(kernels, crossings) {
        metrics.push(Metric::single(format!("{name}.{suffix}"), cost, "ns"));
        metrics.push(Metric::single(
            format!("{name}.share_pct"),
            100.0 * cost * crossings / whole_ns,
            "%",
        ));
    }
    metrics.push(Metric::single(
        "unattributed_pct",
        100.0 * (whole_ns - covered_ns(kernels, crossings)) / whole_ns,
        "%",
    ));
    metrics.push(Metric::single(
        "trace_overhead_pct",
        100.0 * (untraced_pps - traced_pps) / untraced_pps,
        "%",
    ));
    metrics
}

/// Names and units of the metrics a run reports for a `--trace` value —
/// what `BENCHMARK.json` must list.
#[cfg(test)]
pub fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        let crossings = Crossings::of(&crate::workload::WORKLOADS[0], 0.0, 0.0, 0.0);
        traced_metrics(&[], 1, &Kernels::default(), &crossings, 1.0, 1.0)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        vec![
            ("pps".to_string(), "1/s"),
            ("lat1_p50_us".to_string(), "us"),
            ("setup_s".to_string(), "s"),
        ]
    }
}

fn write_trace(
    spec: &Spec,
    request: &Request,
    log: &SpanLog,
    keep_rounds: u32,
) -> Result<String, String> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", spec.name));
    let json = Json::obj()
        .with("workload", spec.name)
        .with("seed", request.seed)
        .with("seconds", request.seconds)
        .with("trace", log.to_json(keep_rounds));
    std::fs::write(&path, json.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is the contract the driver checks this program
    /// against: its workloads and metrics must be the ones reported here.
    #[test]
    fn benchmark_json_lists_exactly_what_a_run_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            contract
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|entry| entry.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            listed("workloads", "name"),
            WORKLOADS.map(|w| w.name.to_string())
        );
        assert_eq!(
            listed("workloads", "why"),
            WORKLOADS.map(|w| w.why.to_string())
        );
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let (names, units): (Vec<String>, Vec<&str>) = metric_names(trace).into_iter().unzip();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
        assert!(listed("end_to_end", "name").contains(&"setup_s".to_string()));
        assert_eq!(
            contract.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::from("benchmark")]
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_whole_counts() {
        let outcome = Outcome {
            attempted: 1000,
            failed: 0,
            violations: Vec::new(),
            metrics: vec![Metric::single("pps", 1234.5678, "1/s")],
            extra: Json::obj(),
        };
        assert_eq!(
            outcome.contract_line(),
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"pps":{"value":1234.5678,"unit":"1/s"}}}"#
        );
        let failing = Outcome {
            failed: 3,
            ..outcome
        };
        assert!(failing
            .contract_line()
            .starts_with(r#"{"correct":false,"attempted":1000,"failed":3,"#));
    }

    #[test]
    fn parallel_fan_out_hands_back_once() {
        let par = Crossings::of(&WORKLOADS[2], 3.0, 0.0, 0.0);
        let seq = Crossings::of(&WORKLOADS[1], 3.0, 0.0, 0.0);
        assert_eq!((par.xfer32, par.cache_get), (6.0, 2.0));
        assert_eq!((seq.xfer32, seq.cache_get), (8.0, 4.0));
    }
}
