//! # fxnet-qos
//!
//! The paper's QoS negotiation model (§7.3).
//!
//! Unlike a variable-bit-rate video source — known period, variable burst
//! size — a compiler-parallelized program has a burst size known at
//! compile time but a burst *period* that depends on the number of
//! processors `P` and on the bandwidth `B` the network can provide during
//! the burst:
//!
//! ```text
//! t_b  = N / B                 (burst length)
//! t_bi = W / P + N / B         (burst interval)
//! ```
//!
//! The burst interval both constrains and is constrained by what the
//! network can commit to — so the paper proposes that an SPMD program
//! characterize its traffic as `[l(·), b(·), c]`, where `c` is the
//! communication pattern, `l` maps `P` to local computation time, and `b`
//! maps `P` to per-connection burst size; the network is then allowed to
//! answer with the `P` the program should run on. This crate implements
//! that descriptor, the burst algebra, a capacity-sharing network model,
//! and the negotiation returning the optimal processor count.

//! ```
//! use fxnet_fx::Pattern;
//! use fxnet_qos::{negotiate, AppDescriptor, QosNetwork};
//!
//! // 40 s of total work, 1 MB bursts on a shift pattern.
//! let app = AppDescriptor::scalable(Pattern::Shift { k: 1 }, 40.0, |_| 1_000_000);
//! let net = QosNetwork::ethernet_10mbps();
//! let deal = negotiate(&app, &net, 1..=16).expect("admissible");
//! assert!(deal.p >= 1 && deal.p <= 16);
//! assert!(deal.timing.t_interval > 0.0);
//! ```

// Nothing in this crate uses `fxnet-topo`; Cargo.toml declares it only
// because `benchmark/Cargo.lock` pins this crate's dependency list and the
// benchmark runs `--locked` (ROADMAP item 3 drops it at the next re-lock).
pub mod descriptor;
pub mod estimate;
pub mod negotiate;
pub mod network;

pub use descriptor::{AppDescriptor, BurstTiming, ContractTerms};
pub use estimate::{estimate_descriptor, TrafficEstimate};
pub use negotiate::{negotiate, Negotiation};
pub use network::QosNetwork;
