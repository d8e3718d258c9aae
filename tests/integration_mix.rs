//! Integration tests for the multi-tenant mixer: admission, shared-wire
//! co-execution, trace demux conservation, and determinism.

use fxnet::mix::{MixTenant, TenantProgram};
use fxnet::qos::QosNetwork;
use fxnet::sim::SimTime;
use fxnet::trace::demux_store;
use fxnet::{KernelKind, Testbed, TestbedBuilder};

fn shift(name: &str, p: u32, start_ms: u64) -> MixTenant {
    MixTenant {
        name: name.to_string(),
        program: TenantProgram::Shift {
            work_s: 0.05,
            bytes: 30_000,
            rounds: 4,
        },
        p,
        start: SimTime::from_millis(start_ms),
        claim_scale: 1.0,
    }
}

#[test]
fn mixed_kernels_conserve_every_frame() {
    let out = Testbed::quiet(2)
        .mix()
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            100,
            2,
            SimTime::ZERO,
        ))
        .tenant(MixTenant::kernel(
            "HIST",
            KernelKind::Hist,
            100,
            2,
            SimTime::from_millis(50),
        ))
        .solo_baselines(false)
        .run();
    assert_eq!(out.tenants.len(), 2);
    let total = out.check_conservation();
    assert!(total > 0);
    // Both tenants actually put traffic on the shared wire.
    for t in &out.tenants {
        assert!(t.frames > 0, "{} demuxed no frames", t.name);
    }
    // Demux is by host ownership, so the sub-traces use disjoint hosts.
    let demuxed = demux_store(&out.store, &out.map);
    for (i, (t, slice)) in out.tenants.iter().zip(out.map.slices()).enumerate() {
        let frames = demuxed.tenant(i);
        assert_eq!(frames.len(), t.frames);
        for r in frames.iter() {
            assert!(slice.owns_host(r.src) && slice.owns_host(r.dst));
        }
    }
}

#[test]
fn mixed_run_is_deterministic_for_a_seed() {
    let run = |seed: u64| {
        TestbedBuilder::quiet(2)
            .seed(seed)
            .build()
            .mix()
            .tenant(shift("alpha", 2, 0))
            .tenant(shift("beta", 2, 25))
            .run()
    };
    let (a, b) = (run(7), run(7));
    assert_eq!(a.store, b.store, "same seed must give an identical trace");
    assert_eq!(a.report(), b.report());
    // Interference metrics are part of the deterministic output.
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(x.measured_slowdown, y.measured_slowdown);
        assert_eq!(x.burst_collisions, y.burst_collisions);
    }
}

#[test]
fn interference_slows_tenants_down() {
    let out = Testbed::quiet(2)
        .mix()
        .tenant(shift("alpha", 2, 0))
        .tenant(shift("beta", 2, 0))
        .run();
    // Two identical shift tenants bursting simultaneously share the
    // 10 Mb/s wire: both must take at least as long as they do alone.
    for t in &out.tenants {
        let s = t.measured_slowdown.expect("solo baseline was run");
        assert!(s >= 1.0 - 1e-9, "{} sped up under contention: {s}", t.name);
        assert!(t.predicted_slowdown > 1.0);
    }
}

#[test]
fn saturated_admission_rejects_the_late_tenant() {
    let out = Testbed::quiet(4)
        .mix()
        .network(QosNetwork::ethernet_10mbps().with_min_burst_bw(50_000.0))
        .solo_baselines(false)
        .tenant(MixTenant::shift("t1", 2.0, 400_000, 3, 4))
        .tenant(MixTenant::shift("t2", 2.0, 400_000, 3, 4))
        .tenant(MixTenant::shift("t3", 2.0, 400_000, 3, 4))
        .run();
    assert!(!out.rejected.is_empty(), "third tenant must be refused");
    assert!(out.tenants.len() == 2);
    assert_eq!(out.rejected[0].name, "t3");
    // The rejected tenant never ran: no hosts, no frames.
    assert_eq!(out.map.len(), 2);
    out.check_conservation();
}

#[test]
fn switched_segments_isolate_tenants_from_each_other() {
    // Tenants pinned to different switches (hosts 0,1 on sw0; 2,3 on
    // sw1) never share a link: each one's mixed timing equals its solo
    // timing, unlike the shared-bus run above.
    let spec = fxnet::TopologySpec::two_switches_trunk(4, fxnet::sim::RATE_10M);
    let out = TestbedBuilder::quiet(4)
        .topology(spec)
        .build()
        .mix()
        .tenant(shift("alpha", 2, 0))
        .tenant(shift("beta", 2, 0))
        .run();
    out.check_conservation();
    for t in &out.tenants {
        let s = t.measured_slowdown.expect("solo baseline was run");
        assert!(
            (s - 1.0).abs() < 1e-6,
            "{} should be unaffected behind its own switch: {s}",
            t.name
        );
    }
}

#[test]
fn switched_fabric_grows_with_the_packed_tenants() {
    // Two two-rank tenants on a testbed configured for two hosts: the
    // engine raises the host count to the four packed ranks, and the
    // switch counterfactual gets its ports from that count, not from the
    // builder's.
    let tb = TestbedBuilder::quiet(2).switched_fabric().build();
    assert_eq!(tb.config().hosts, 2);
    let out = tb
        .mix()
        .tenant(shift("alpha", 2, 0))
        .tenant(shift("beta", 2, 0))
        .solo_baselines(false)
        .run();
    assert!(out.check_conservation() > 0);
    assert!(out.tenants.iter().all(|t| t.frames > 0));
}

#[test]
fn trunk_spanning_tenants_contend_only_on_the_trunk() {
    // Interleaved attachment pins each tenant across both switches
    // (alpha = hosts 0,1 → sw0,sw1; beta = hosts 2,3 → sw0,sw1): every
    // burst crosses the trunk, so the trunk is the only shared resource.
    let mut spec = fxnet::TopologySpec::two_switches_trunk(4, fxnet::sim::RATE_10M);
    spec.attachments = vec![0, 1, 0, 1];
    let out = TestbedBuilder::quiet(4)
        .topology(spec)
        .build()
        .mix()
        .tenant(shift("alpha", 2, 0))
        .tenant(shift("beta", 2, 0))
        .run();
    out.check_conservation();
    let slow: Vec<f64> = out
        .tenants
        .iter()
        .map(|t| t.measured_slowdown.expect("solo baseline was run"))
        .collect();
    assert!(
        slow.iter().all(|&s| s >= 1.0 - 1e-9),
        "no tenant speeds up under trunk contention: {slow:?}"
    );
    assert!(
        slow.iter().any(|&s| s > 1.0 + 1e-9),
        "simultaneous cross-trunk bursts must queue on the trunk: {slow:?}"
    );
}
