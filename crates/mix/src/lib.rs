//! # fxnet-mix
//!
//! Multi-tenant workload mixing on the shared testbed network.
//!
//! The paper measures one compiler-parallelized program at a time on a
//! dedicated Ethernet, then asks (§7.3) what a network could do with the
//! compile-time knowledge of each program's traffic — the `[l(P), b(P),
//! c]` descriptor. This crate closes the loop by actually *running* the
//! scenario the QoS section reasons about: several SPMD programs share
//! one simulated Ethernet, each admitted (or refused) by a live
//! admission controller whose residual capacity reflects every earlier
//! commitment.
//!
//! The pipeline, end to end:
//!
//! 1. **Admission** ([`AdmissionController`]) — each [`MixTenant`]
//!    presents the descriptor of its program; `fxnet-qos::negotiate`
//!    either returns an operating point (whose mean load is committed
//!    against the shared capacity) or refuses, in which case the tenant
//!    never runs.
//! 2. **Co-execution** — the admitted set runs concurrently via
//!    `fxnet_fx::run`: each tenant gets a contiguous block of task
//!    ids/hosts ([`fxnet_pvm::TenantMap`]), its own barriers, and a
//!    staggered start, all over one shared Ethernet whose promiscuous
//!    trace is captured as usual.
//! 3. **Demux & interference** — the shared trace is split per tenant
//!    (`fxnet_trace::demux`, conservation checked), then each tenant's
//!    sub-trace is compared against a solo baseline run: measured
//!    slowdown next to the QoS model's predicted slowdown, burst
//!    collisions, and spectral peak shift/smearing.
//! 4. **Live observation** (optional) — a `fxnet-watch` streaming
//!    observer on the simulator's frame tap ([`Mix::watch`]) checks
//!    each tenant's traffic against the contract it *claimed* at
//!    admission while the run is still in flight, emitting latched
//!    `ContractViolation` events with flight-recorder dumps; results
//!    surface through [`MixOutcome::watch`]. The watcher is the run's
//!    one live observer: the `fxnet-metrics` weather map reads the
//!    outcome after the run — the shared trace ([`MixOutcome::store`]),
//!    the per-link series ([`Mix::sample_links`]) and the causal
//!    capture ([`Mix::causal`]).
//!
//! ```
//! use fxnet_fx::SpmdConfig;
//! use fxnet_mix::{Mix, MixTenant, TenantProgram};
//! use fxnet_sim::SimTime;
//!
//! let mut cfg = SpmdConfig::default();
//! cfg.pvm.heartbeat = None;
//! let out = Mix::new(cfg)
//!     .tenant(MixTenant::shift("alpha", 0.05, 20_000, 3, 2))
//!     .tenant(MixTenant {
//!         name: "beta".into(),
//!         program: TenantProgram::Shift { work_s: 0.05, bytes: 20_000, rounds: 3 },
//!         p: 2,
//!         start: SimTime::from_millis(20),
//!         claim_scale: 1.0,
//!     })
//!     .run();
//! assert_eq!(out.tenants.len(), 2);
//! out.check_conservation(); // no frame lost or double-attributed
//! ```

pub mod admission;
pub mod runner;
pub mod tenant;

pub use admission::{AdmissionController, Rejection};
pub use runner::{Mix, MixOutcome, TenantOutcome};
pub use tenant::{MixTenant, TenantProgram};
