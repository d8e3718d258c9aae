//! # fxnet
//!
//! A from-scratch reproduction of *"The Measured Network Traffic of
//! Compiler-Parallelized Programs"* (Dinda, Garcia, Leung — CMU-CS-98-144
//! / ICPP): the complete measurement stack, the six measured programs,
//! the trace analyses behind every figure, the spectral traffic models of
//! §7.2, and the QoS negotiation model of §7.3 — all over a simulated
//! 10 Mb/s shared Ethernet of Alpha-class workstations.
//!
//! ## Quick start
//!
//! ```
//! use fxnet::{KernelKind, TestbedBuilder};
//! use fxnet::trace::TraceStore;
//!
//! // The paper's environment: P=4 tasks on a 9-workstation shared LAN,
//! // scaled down 50× on the outer iteration count for a fast run.
//! let tb = TestbedBuilder::paper().seed(7).build();
//! let run = tb.run_kernel(KernelKind::Hist, 50).expect("valid config");
//! // Columnar analysis: one store, zero-copy views, fused kernels.
//! let store = TraceStore::from_records(&run.trace);
//! let sizes = store.view().packet_sizes().unwrap();
//! assert_eq!(sizes.min, 58.0);               // pure TCP ACKs
//! assert!(store.view().average_bandwidth().unwrap() < 1_250_000.0);
//! // Per-connection stats are an index lookup, not a filtered copy.
//! let ((src, dst), _) = store.host_pairs()[0];
//! assert!(!store.connection(src, dst).is_empty());
//! ```
//!
//! ## Layer map
//!
//! | layer | crate | re-export |
//! |---|---|---|
//! | CSMA/CD Ethernet, frames, simulated time | `fxnet-sim` | [`sim`] |
//! | multi-segment switched topologies | `fxnet-topo` | [`topo`] |
//! | sequential shim kept for `benchmark/` (one `CompositeFabric`) | `fxnet-shard` | [`shard`] |
//! | TCP/UDP stack | `fxnet-proto` | [`proto`] |
//! | PVM message passing | `fxnet-pvm` | [`pvm`] |
//! | SPMD runtime, patterns, cost model | `fxnet-fx` | [`fx`] |
//! | FFT/SOR/LU numerics | `fxnet-numerics` | [`numerics`] |
//! | the six measured programs | `fxnet-apps` | [`apps`] |
//! | trace statistics, bandwidth, spectra | `fxnet-trace` | [`trace`] |
//! | phase spans, counter registry, profiling | `fxnet-telemetry` | [`telemetry`] |
//! | Fourier traffic models + media baselines | `fxnet-spectral` | [`spectral`] |
//! | QoS negotiation | `fxnet-qos` | [`qos`] |
//! | multi-tenant mixing, admission, interference | `fxnet-mix` | [`mix`] |
//! | streaming trace watch, contract compliance | `fxnet-watch` | [`watch`] |
//! | causal provenance, critical paths, blame | `fxnet-causal` | [`causal`] |
//! | deterministic parallel experiment runner | `fxnet-harness` | [`harness`] |

pub use fxnet_apps as apps;
pub use fxnet_causal as causal;
pub use fxnet_fx as fx;
pub use fxnet_harness as harness;
pub use fxnet_metrics as metrics;
pub use fxnet_mix as mix;
pub use fxnet_numerics as numerics;
pub use fxnet_proto as proto;
pub use fxnet_pvm as pvm;
pub use fxnet_qos as qos;
pub use fxnet_shard as shard;
pub use fxnet_sim as sim;
pub use fxnet_spectral as spectral;
pub use fxnet_telemetry as telemetry;
pub use fxnet_topo as topo;
pub use fxnet_trace as trace;
pub use fxnet_watch as watch;

mod testbed;

pub use fxnet_apps::KernelKind;
pub use fxnet_fx::{
    run, run_single, AppOp, CausalRun, DescheduleConfig, FxnetError, FxnetResult, GroupSpec,
    MultiRunResult, RankCtx, RunOptions, RunResult, SpmdConfig,
};
pub use fxnet_sim::{FrameRecord, HostId, SimTime};
pub use fxnet_topo::TopologySpec;
pub use testbed::{Testbed, TestbedBuilder};
