//! DESIGN.md §8 ablations: switched vs shared fabric, processor-count
//! sweep against the §7.3 model, and the calibration's self-consistency.

use fxnet::pvm::MessageBuilder;
use fxnet::qos::{AppDescriptor, QosNetwork};
use fxnet::sim::RATE_100M;
use fxnet::trace::TraceStore;
use fxnet::{KernelKind, SimTime, Testbed, TestbedBuilder, TopologySpec};

#[test]
fn switched_fabric_speeds_up_the_all_to_all() {
    // On the shared bus every transfer serializes; a switch forwards
    // disjoint pairs in parallel, so 2DFFT's transpose drains faster and
    // the program finishes sooner.
    let bus = Testbed::quiet(4).run_kernel(KernelKind::Fft2d, 25).unwrap();
    let sw = TestbedBuilder::quiet(4)
        .switched_fabric()
        .build()
        .run_kernel(KernelKind::Fft2d, 25)
        .unwrap();
    assert!(
        sw.finished_at < bus.finished_at,
        "switch {} must beat bus {}",
        sw.finished_at,
        bus.finished_at
    );
    // Same data volume either way.
    let bytes =
        |tr: &[fxnet::FrameRecord]| -> u64 { tr.iter().map(|r| u64::from(r.wire_len)).sum() };
    let (b, s) = (bytes(&bus.trace), bytes(&sw.trace));
    assert!(
        s > b / 2 && s < b * 2,
        "volumes should be comparable: bus {b}, switch {s}"
    );
    // And the aggregate bandwidth the program achieves rises.
    let bw_bus = TraceStore::from_records(&bus.trace)
        .view()
        .average_bandwidth()
        .unwrap();
    let bw_sw = TraceStore::from_records(&sw.trace)
        .view()
        .average_bandwidth()
        .unwrap();
    assert!(bw_sw > bw_bus, "switch bw {bw_sw:.0} vs bus {bw_bus:.0}");
}

#[test]
fn switched_fabric_preserves_results_and_periodicity() {
    // The ablation answers the §8 question: the alternating quiet/burst
    // structure comes from the *program*, not from CSMA/CD — it must
    // survive the fabric swap.
    let sw = TestbedBuilder::quiet(4)
        .switched_fabric()
        .build()
        .run_kernel(KernelKind::Hist, 10)
        .unwrap();
    let series = TraceStore::from_records(&sw.trace)
        .view()
        .binned_bandwidth(SimTime::from_millis(10));
    let quiet = series.iter().filter(|&&v| v < 1000.0).count();
    assert!(
        quiet * 10 > series.len() * 3,
        "compute gaps must persist on a switch"
    );
    // No collisions exist on a switch.
    assert_eq!(sw.ether.collisions, 0);
}

#[test]
fn switched_fabric_runs_at_the_configured_bandwidth() {
    // The switch's ports run at the LAN's bit rate: at 100 Mb/s,
    // `switched_fabric` is the one-switch topology at 100 Mb/s, frame
    // for frame.
    let run = |b: TestbedBuilder| b.build().run_kernel(KernelKind::Fft2d, 25).unwrap();
    let fast = || TestbedBuilder::quiet(4).bandwidth_bps(RATE_100M);
    let hosts = Testbed::quiet(4).config().hosts;
    let switched = run(fast().switched_fabric());
    let spec = run(fast().topology(TopologySpec::single_switch(hosts, RATE_100M)));
    assert_eq!(switched.trace, spec.trace);
    assert_eq!(switched.finished_at, spec.finished_at);
}

#[test]
fn shared_bus_collides_where_switch_cannot() {
    let bus = Testbed::quiet(4).run_kernel(KernelKind::Fft2d, 50).unwrap();
    assert!(
        bus.ether.collisions > 0,
        "the all-to-all must provoke collisions on a shared medium"
    );
}

/// A §7.3 shift-pattern program: W seconds of total work per cycle,
/// N-byte messages, `cycles` repetitions.
fn shift_program(
    p: u32,
    total_work: SimTime,
    n_bytes: usize,
    cycles: usize,
) -> impl Fn(&mut fxnet::RankCtx) -> u64 + Send + Sync + 'static {
    move |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        assert_eq!(np, p);
        let per_rank = SimTime::from_nanos(total_work.as_nanos() / u64::from(np));
        for i in 0..cycles {
            ctx.compute_time(per_rank);
            let mut b = MessageBuilder::new(i as i32);
            b.pack_bytes(&vec![0u8; n_bytes]);
            ctx.send((me + 1) % np, b.finish());
            let _ = ctx.recv((me + np - 1) % np);
        }
        0
    }
}

#[test]
fn measured_burst_interval_tracks_the_qos_model() {
    // Run the shift program and compare the measured burst interval with
    // the analytic t_bi = W/P + N/B. The model's B is what the network
    // can give each of the P concurrent connections.
    let p = 4u32;
    let work = SimTime::from_secs(8);
    let n_bytes = 200_000usize;
    let run = Testbed::quiet(p).run(shift_program(p, work, n_bytes, 10));
    let profile = TraceStore::from_records(&run.trace)
        .view()
        .burst_profile(SimTime::from_millis(300))
        .expect("bursts");
    let measured_tbi = profile.intervals.expect("multiple bursts").avg;

    let app = AppDescriptor::scalable(
        fxnet::fx::Pattern::Shift { k: 1 },
        work.as_secs_f64(),
        move |_| n_bytes as u64,
    );
    let net = QosNetwork::ethernet_10mbps();
    let bw = net.offer(app.concurrent_connections(p)).unwrap();
    let model_tbi = app.timing(p, bw).t_interval;
    let ratio = measured_tbi / model_tbi;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "measured t_bi {measured_tbi:.2}s vs model {model_tbi:.2}s (ratio {ratio:.2})"
    );
}

#[test]
fn burst_sizes_are_constant_for_the_shift_program() {
    // One of the paper's headline properties: the parallel program's
    // burst size is fixed by the program.
    let run = Testbed::quiet(4).run(shift_program(4, SimTime::from_secs(8), 150_000, 8));
    let profile = TraceStore::from_records(&run.trace)
        .view()
        .burst_profile(SimTime::from_millis(300))
        .expect("bursts");
    assert!(
        profile.size_cv() < 0.25,
        "burst size CV {:.3} too high for constant bursts",
        profile.size_cv()
    );
}

#[test]
fn more_processors_shrink_the_interval_until_bandwidth_binds() {
    // The §7.3 tension, measured: with heavy messages, going from P=2 to
    // P=8 stops paying because each connection gets less bandwidth.
    let mut intervals = Vec::new();
    for p in [2u32, 4, 8] {
        let run = Testbed::quiet(p).run(shift_program(p, SimTime::from_secs(6), 400_000, 6));
        let profile = TraceStore::from_records(&run.trace)
            .view()
            .burst_profile(SimTime::from_millis(200))
            .expect("bursts");
        intervals.push((p, profile.intervals.expect("cycles").avg));
    }
    // Compute share falls 3s → 0.75s, but the burst share rises; the
    // interval must not keep shrinking proportionally to 1/P.
    let (_, t2) = intervals[0];
    let (_, t8) = intervals[2];
    assert!(
        t8 > t2 / 4.0 * 1.3,
        "t_bi at P=8 ({t8:.2}s) should be held up by bandwidth vs P=2 ({t2:.2}s)"
    );
}

#[test]
fn burst_period_depends_on_network_bandwidth() {
    // The paper's closing observation: unlike media traffic, "the
    // periodicity is determined by application parameters and the
    // network itself" — t_bi = W/P + N/B shrinks when B grows. Same
    // program, two line rates.
    let prog = |ctx: &mut fxnet::RankCtx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        for i in 0..8usize {
            ctx.compute_time(SimTime::from_millis(500));
            let mut b = MessageBuilder::new(i as i32);
            b.pack_bytes(&vec![0u8; 300_000]);
            ctx.send((me + 1) % np, b.finish());
            let _ = ctx.recv((me + np - 1) % np);
        }
    };
    let slow = Testbed::quiet(4).run(prog);
    let fast = TestbedBuilder::quiet(4)
        .bandwidth_bps(100_000_000)
        .build()
        .run(prog);
    let tbi = |run: &fxnet::RunResult<()>| {
        TraceStore::from_records(&run.trace)
            .view()
            .burst_profile(SimTime::from_millis(100))
            .and_then(|p| p.intervals.map(|i| i.avg))
            .expect("bursts")
    };
    let (t_slow, t_fast) = (tbi(&slow), tbi(&fast));
    assert!(
        t_fast < t_slow * 0.6,
        "10× bandwidth must shrink the burst interval ({t_slow:.2}s -> {t_fast:.2}s)"
    );
    // The compute share W/P is a floor: the interval cannot go below it.
    assert!(
        t_fast > 0.5,
        "interval {t_fast:.2}s below the compute floor"
    );
}

#[test]
fn descriptor_estimated_from_a_real_trace_predicts_the_run() {
    // Close the measurement → negotiation loop: run the shift program,
    // estimate [l, b, c] from its trace alone, and check the recovered
    // parameters match what the program actually did.
    use fxnet::qos::estimate::{estimate_descriptor, estimate_traffic, BurstScaling};
    let p = 4u32;
    let work = SimTime::from_secs(8); // 2 s per rank per cycle
    let n_bytes = 200_000usize;
    let run = Testbed::quiet(p).run(shift_program(p, work, n_bytes, 10));
    let est = estimate_traffic(
        TraceStore::from_records(&run.trace).view(),
        p,
        SimTime::from_millis(300),
    )
    .expect("bursts");
    // Recovered local computation ≈ W/P = 2 s.
    assert!(
        (est.local_s - 2.0).abs() < 0.5,
        "recovered l(P) = {:.2}s vs actual 2 s",
        est.local_s
    );
    // Aggregate burst ≈ P messages of n_bytes (+ protocol overhead).
    let expect = (p as usize * n_bytes) as f64;
    assert!(
        est.burst_bytes > expect * 0.9 && est.burst_bytes < expect * 1.3,
        "recovered burst {:.0} vs sent {expect:.0}",
        est.burst_bytes
    );
    assert!(est.burst_size_cv < 0.25, "constant bursts expected");
    // And the derived descriptor negotiates successfully.
    let app = estimate_descriptor(
        &est,
        fxnet::fx::Pattern::Shift { k: 1 },
        BurstScaling::Constant,
    );
    let deal =
        fxnet::qos::negotiate(&app, &QosNetwork::ethernet_10mbps(), 1..=16).expect("admissible");
    assert!(deal.p >= 1);
}

#[test]
fn deschedule_merges_adjacent_bursts() {
    // §6.1's 2DFFT artifact, asserted at burst level: injection reduces
    // the number of distinct bursts (some merge) while stretching time.
    let clean = TestbedBuilder::paper()
        .seed(4)
        .build()
        .run_kernel(KernelKind::Fft2d, 20)
        .unwrap();
    let merged = TestbedBuilder::paper()
        .seed(4)
        .deschedule(SimTime::from_millis(300), SimTime::from_millis(250))
        .build()
        .run_kernel(KernelKind::Fft2d, 20)
        .unwrap();
    let gap = SimTime::from_millis(120);
    let (clean, merged) = (
        TraceStore::from_records(&clean.trace),
        TraceStore::from_records(&merged.trace),
    );
    let profile_clean = clean.view().burst_profile(gap).unwrap();
    let profile_merged = merged.view().burst_profile(gap).unwrap();
    let (n_clean, n_merged) = (profile_clean.count, profile_merged.count);
    // Stalls insert silence, so bursts can also split; what must grow is
    // the spread of burst sizes (merged phases double up).
    let (cv_clean, cv_merged) = (profile_clean.size_cv(), profile_merged.size_cv());
    assert!(
        cv_merged > cv_clean || n_merged < n_clean,
        "descheduling should disturb the burst structure \
         (count {n_clean}->{n_merged}, cv {cv_clean:.3}->{cv_merged:.3})"
    );
    let i_clean = clean.view().interarrivals_ms().unwrap().max;
    let i_merged = merged.view().interarrivals_ms().unwrap().max;
    assert!(i_merged > i_clean);
}
