//! Pins the data plane's configuration surface: the host's config struct is
//! destructured without `..`, so adding (or removing) a field stops this
//! file compiling at the line that says what a new option has to show. (The
//! NF Manager has no configuration: it drives a default one-shard host.)

use sdnfv::dataplane::ThreadedHostConfig;

#[test]
fn config_surface_is_pinned() {
    // A new field here must come with two callers that are not tests or
    // examples and need *different* values for it (each independent option
    // doubles the configurations DST, the model checker and the benchmark
    // ledger have to cover). With one value in use it is a constant next to
    // `CONTROL_RING_CAPACITY`; if the code can work the value out from its
    // inputs or a measurement it already takes, it is not an option at all.
    let ThreadedHostConfig {
        nf_ring_capacity: _,
        ingress_capacity: _,
        egress_capacity: _,
        burst_size: _,
        num_shards: _,
        shard_credits: _,
        telemetry_interval_ns: _,
        rule_sweep_interval_ns: _,
        pin_idle_timeout_ns: _,
        trace_ring_capacity: _,
    } = ThreadedHostConfig::default();
}
