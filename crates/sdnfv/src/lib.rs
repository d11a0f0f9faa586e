//! SDNFV: software defined control of an application- and flow-aware data
//! plane.
//!
//! This facade crate re-exports the whole SDNFV workspace behind one
//! dependency, organised the way the paper organises the system:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`proto`] | `sdnfv-proto` | packet formats the NFs inspect |
//! | [`ring`] | `sdnfv-ring` | §4.1 zero-copy rings and packet pools |
//! | [`flowtable`] | `sdnfv-flowtable` | §3.3 service-ID-extended flow tables |
//! | [`graph`] | `sdnfv-graph` | §3.2 service graphs |
//! | [`nf`] | `sdnfv-nf` | §4.3 the SDNFV-User library and NFs |
//! | [`dataplane`] | `sdnfv-dataplane` | §4.1–4.2 the NF Manager |
//! | [`telemetry`] | `sdnfv-telemetry` | §3.5 telemetry bus and control actions |
//! | [`control`] | `sdnfv-control` | §3.1/§3.4–3.5 controller, orchestrator, application, elastic manager |
//! | [`obs`] | `sdnfv-obs` | latency percentiles, flow traces, control-plane flight recorder |
//! | [`placement`] | `sdnfv-placement` | §3.5 the placement engine |
//! | [`sim`] | `sdnfv-sim` | §5 scenario simulators for the evaluation |
//!
//! # Quickstart
//!
//! ```
//! use sdnfv::graph::{catalog, CompileOptions};
//! use sdnfv::dataplane::{NfManager, PacketOutcome};
//! use sdnfv::nf::nfs::NoOpNf;
//! use sdnfv::proto::packet::PacketBuilder;
//!
//! // Build the anomaly-detection service graph and install it on a host:
//! // the NF Manager steps the shipping engine on the calling thread.
//! let (graph, services) = catalog::anomaly_detection();
//! let mut manager = NfManager::default();
//! manager.install_graph(&graph, &CompileOptions::default());
//! manager.add_nf(services.firewall, Box::new(NoOpNf::new()));
//! manager.add_nf(services.sampler, Box::new(NoOpNf::new()));
//!
//! // Push a packet through the default path.
//! let packet = PacketBuilder::udp().ingress_port(0).build();
//! match manager.process_packet(packet, 0) {
//!     PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sdnfv_control as control;
pub use sdnfv_dataplane as dataplane;
pub use sdnfv_flowtable as flowtable;
pub use sdnfv_graph as graph;
pub use sdnfv_nf as nf;
pub use sdnfv_obs as obs;
pub use sdnfv_placement as placement;
pub use sdnfv_proto as proto;
pub use sdnfv_ring as ring;
pub use sdnfv_sim as sim;
pub use sdnfv_telemetry as telemetry;
