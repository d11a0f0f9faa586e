//! Isolated per-layer kernels: each times one public function of one layer
//! on the workload's own generated packets, keys and rule set, outside any
//! host. Together with how often a packet crosses each layer they say how
//! much of the stepped per-packet cost the layers explain.

use std::hint::black_box;
use std::time::Instant;

use sdnfv_dataplane::LookupCache;
use sdnfv_flowtable::{Decision, FlowMatch, FlowRule, RulePort, ServiceId};
use sdnfv_nf::{NetworkFunction, NfContext, PacketBatch, Verdict, VerdictSlice};
use sdnfv_proto::{FlowKey, Packet};
use sdnfv_ring::{spsc_ring, CreditGate};
use sdnfv_telemetry::LatencyHistogram;

use crate::drive::ROUND_NS;
use crate::gen::{Traffic, BURST, INGRESS_PORT};
use crate::stats::median;
use crate::workload::{deploy, nfs, Chain, Spec};

/// Packets in the kernels' input pool.
const POOL: usize = 16_384;
/// Timed repetitions per kernel; the median is reported.
const REPS: usize = 7;
/// Entries of the shard worker's lookup cache (`runtime.rs`).
const CACHE_ENTRIES: usize = 4096;
/// The worker's cache TTL under the default config: half the rule-sweep
/// interval of 1 ms.
const CACHE_TTL_NS: u64 = 500_000;

/// Median cost of each kernel, nanoseconds per operation.
#[derive(Debug, Clone, Default)]
pub struct Kernels {
    /// `FlowKey::from_packet`, per packet.
    pub parse: f64,
    /// `FlowKey::stable_hash`, per key.
    pub hash: f64,
    /// `push_n` + `pop_n` of a 32-frame burst, per packet per crossing.
    pub xfer32: f64,
    /// `try_acquire(1)` + `release(1)`, per pair.
    pub credit: f64,
    /// `SharedFlowTable::lookup`, per lookup, over the packet's steps.
    pub lookup: f64,
    /// `insert` of a timed exact pin plus its share of `sweep_expired`.
    pub insert_evict: f64,
    /// `LookupCache::get` (and the `put` that follows a miss), per get.
    pub cache_get: f64,
    /// Share of those gets that hit.
    pub cache_hit_ratio: f64,
    /// `process_batch` of every NF a packet visits, per packet.
    pub nf_service: f64,
    /// `LatencyHistogram::record`, per record.
    pub record: f64,
}

/// Runs `rep` [`REPS`] times and returns the median nanoseconds per
/// operation, `ops` being the operations one call performs.
fn time(ops: usize, mut rep: impl FnMut()) -> f64 {
    rep(); // warm caches and lazy state
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            rep();
            started.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The steps a packet is looked up at: ingress, then after each NF it
/// returns from (the parallel chain returns once, from its last NF).
fn lookup_steps(spec: &Spec, services: &[ServiceId]) -> Vec<RulePort> {
    let mut steps = vec![RulePort::Nic(INGRESS_PORT)];
    match spec.chain {
        Chain::Forward => {}
        Chain::NoOp3 { parallel: true } => steps.push(RulePort::Service(services[2])),
        Chain::NoOp3 { parallel: false } => {
            steps.extend(services.iter().map(|s| RulePort::Service(*s)))
        }
        // The scrubber step is taken by flagged packets only.
        Chain::Ids => steps.extend(services[..2].iter().map(|s| RulePort::Service(*s))),
    }
    steps
}

pub fn run(spec: &Spec, seed: u64, passes: usize) -> Kernels {
    let passes = passes.max(1);
    let mut traffic = Traffic::new(spec.traffic, seed);
    let flow_keys = traffic.flow_keys().to_vec();
    let pool: Vec<Packet> = (0..POOL).map(|_| traffic.next_packet().0).collect();
    let keys: Vec<FlowKey> = pool
        .iter()
        .map(|p| p.flow_key().expect("generated frames carry IPv4"))
        .collect();
    let parse = time(POOL * passes, || {
        for _ in 0..passes {
            for packet in &pool {
                black_box(FlowKey::from_packet(black_box(packet)));
            }
        }
    });

    let hash = time(POOL * passes, || {
        for _ in 0..passes {
            for key in &keys {
                black_box(black_box(key).stable_hash());
            }
        }
    });

    let xfer32 = {
        // Same payload as the host's ingress frames: the packet plus its
        // parsed key.
        let (producer, consumer) = spsc_ring::<(Packet, Option<FlowKey>)>(1024);
        let mut burst: Vec<(Packet, Option<FlowKey>)> = pool[..BURST]
            .iter()
            .zip(&keys)
            .map(|(p, k)| (p.clone(), Some(*k)))
            .collect();
        let crossings = (POOL / BURST) * passes;
        time(crossings * BURST, || {
            for _ in 0..crossings {
                producer.push_n(&mut burst);
                consumer.pop_n(&mut burst, BURST);
            }
            black_box(burst.len());
        })
    };

    let credit = {
        let gate = CreditGate::new(1024);
        time(POOL * passes, || {
            for _ in 0..POOL * passes {
                black_box(gate.try_acquire(1));
                gate.release(1);
            }
        })
    };

    let deployment = deploy(spec, &flow_keys);
    let steps = lookup_steps(spec, &deployment.services);
    let lookup = time(POOL * steps.len() * passes, || {
        for _ in 0..passes {
            for key in &keys {
                for step in &steps {
                    black_box(deployment.table.lookup(*step, key));
                }
            }
        }
    });

    let (cache_get, cache_hit_ratio) = {
        // One decision per step to refill the cache with after a miss; which
        // rule it names does not matter to the cache's cost.
        let decisions: Vec<Decision> = steps
            .iter()
            .map(|step| {
                deployment
                    .table
                    .lookup(*step, &keys[0])
                    .expect("every step of the chain has a rule")
            })
            .collect();
        let generation = deployment.table.generation();
        let mut cache = LookupCache::new(CACHE_ENTRIES);
        let mut now_ns = 0u64;
        let cost = time(POOL * steps.len() * passes, || {
            for _ in 0..passes {
                for (index, key) in keys.iter().enumerate() {
                    if index % BURST == 0 {
                        now_ns += ROUND_NS;
                    }
                    for (step, decision) in steps.iter().zip(&decisions) {
                        if cache
                            .get(key, *step, generation, now_ns, CACHE_TTL_NS)
                            .is_none()
                        {
                            cache.put(key, *step, generation, now_ns, decision.clone());
                        }
                    }
                }
            }
        });
        let gets = cache.hits() + cache.misses();
        (cost, cache.hits() as f64 / gets.max(1) as f64)
    };

    let insert_evict = {
        // Pin churn against the workload's own rule set: every key gets a
        // fresh exact rule with an idle timeout one burst long, and the
        // sweeper runs once per burst as the clock moves on — so each
        // insert is matched by one eviction.
        let table = deploy(spec, &flow_keys).table;
        let step = *steps.last().expect("steps start with the ingress step");
        let base = table
            .lookup(step, &keys[0])
            .expect("every step of the chain has a rule");
        let mut now_ns = 0u64;
        let mut salt = 0u16;
        time(POOL * passes, || {
            for _ in 0..passes {
                salt = salt.wrapping_add(1);
                for (index, key) in keys.iter().enumerate() {
                    // The salt makes every pass's keys new flows.
                    let key = FlowKey {
                        dst_port: key.dst_port ^ salt,
                        ..*key
                    };
                    table.insert(
                        FlowRule::new(FlowMatch::exact(step, &key), base.actions.to_vec())
                            .with_priority(10)
                            .with_idle_timeout_ns(Some(ROUND_NS)),
                    );
                    if index % BURST == BURST - 1 {
                        now_ns += 2 * ROUND_NS;
                        black_box(table.sweep_expired(now_ns, 2 * BURST, |_| false));
                    }
                }
            }
        })
    };

    let nf_service = match spec.chain {
        Chain::Forward => 0.0,
        _ => time(POOL * passes, || {
            // Fresh NFs per repetition: the IDS remembers flagged flows.
            let mut chain = nfs(spec, &deployment.services);
            let mut ctx = NfContext::new(0);
            let mut verdicts = VerdictSlice::with_capacity(BURST);
            for _ in 0..passes {
                for burst in pool.chunks(BURST) {
                    let mut refs: Vec<&Packet> = burst.iter().collect();
                    for (index, (_, nf)) in chain.iter_mut().enumerate() {
                        let slots = verdicts.reset(refs.len());
                        nf.process_batch(&PacketBatch::new(&refs), slots, &mut ctx);
                        if matches!(spec.chain, Chain::Ids) && index == 1 {
                            // Only packets the IDS diverts go on to the
                            // scrubber.
                            let diverted: Vec<&Packet> = refs
                                .iter()
                                .zip(verdicts.as_slice())
                                .filter(|(_, v)| matches!(v, Verdict::ToService(_)))
                                .map(|(p, _)| *p)
                                .collect();
                            refs = diverted;
                            if refs.is_empty() {
                                break;
                            }
                        }
                    }
                    black_box(ctx.take_attributed_messages());
                }
            }
        }),
    };

    let record = {
        let histogram = LatencyHistogram::new();
        let cost = time(POOL * passes, || {
            for i in 0..(POOL * passes) as u64 {
                histogram.record(black_box(i.wrapping_mul(37) % 100_000));
            }
        });
        black_box(histogram.snapshot().count());
        cost
    };

    Kernels {
        parse,
        hash,
        xfer32,
        credit,
        lookup,
        insert_evict,
        cache_get,
        cache_hit_ratio,
        nf_service,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_kernel_reports_a_positive_cost_on_every_workload() {
        for spec in &WORKLOADS {
            let k = run(spec, 1, 1);
            let all = [
                k.parse,
                k.hash,
                k.xfer32,
                k.credit,
                k.lookup,
                k.insert_evict,
                k.cache_get,
                k.record,
            ];
            assert!(all.iter().all(|ns| *ns > 0.0), "{}: {k:?}", spec.name);
            assert_eq!(k.nf_service > 0.0, spec.nf_count() > 0, "{}", spec.name);
            assert!((0.0..=1.0).contains(&k.cache_hit_ratio));
        }
    }

    #[test]
    fn sixteen_times_the_cache_in_flows_never_hits() {
        let k = run(crate::workload::find("flows64k").unwrap(), 1, 1);
        assert!(k.cache_hit_ratio < 0.01, "{}", k.cache_hit_ratio);
        let k = run(crate::workload::find("chain3_64").unwrap(), 1, 1);
        // 64 flows fit the cache; only the TTL sends a get to the table.
        assert!(k.cache_hit_ratio > 0.8, "{}", k.cache_hit_ratio);
    }
}
