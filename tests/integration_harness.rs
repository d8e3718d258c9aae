//! Serial-vs-parallel determinism of the experiment harness: fanning
//! the measured programs across a worker pool must be unobservable in
//! the results — same traces, same Ethernet stats, same watch events,
//! byte for byte — because every simulation is a pure function of its
//! `(seed, config)` and the pool returns results in job order.

use fxnet::apps::airshed::AirshedParams;
use fxnet::harness::Pool;
use fxnet::mix::MixTenant;
use fxnet::qos::QosNetwork;
use fxnet::{KernelKind, RunResult, SimTime, Testbed, TestbedBuilder};

fn paper() -> Testbed {
    TestbedBuilder::paper().seed(1998).build()
}

/// Run one of the six measured programs at test scale.
fn run_program(job: Option<KernelKind>) -> RunResult<u64> {
    match job {
        Some(k) => paper().run_kernel(k, 50).unwrap(),
        None => paper()
            .run_airshed(AirshedParams {
                hours: 1,
                ..AirshedParams::paper()
            })
            .unwrap(),
    }
}

#[test]
fn six_programs_are_byte_identical_under_the_pool() {
    let jobs: Vec<Option<KernelKind>> = KernelKind::ALL
        .into_iter()
        .map(Some)
        .chain([None]) // None = AIRSHED
        .collect();
    let serial = Pool::serial().map(jobs.clone(), run_program);
    let pooled = Pool::new(3).map(jobs.clone(), run_program);
    for ((job, s), p) in jobs.iter().zip(&serial).zip(&pooled) {
        let name = job.map_or("AIRSHED", |k| k.name());
        assert_eq!(s.trace, p.trace, "{name}: trace diverged under the pool");
        assert_eq!(s.ether, p.ether, "{name}: MAC stats diverged");
        assert_eq!(s.finished_at, p.finished_at, "{name}: end time diverged");
    }
}

#[test]
fn seed_sweep_is_keyed_and_deterministic() {
    let seeds = [1u64, 2, 3, 4, 5, 6];
    let sweep = |pool: &Pool| {
        let mut s = pool.sweep::<u64, (usize, u64)>();
        for &seed in &seeds {
            s = s.add(seed, move || {
                let run = TestbedBuilder::paper()
                    .seed(seed)
                    .build()
                    .run_kernel(KernelKind::Hist, 100)
                    .unwrap();
                let bytes: u64 = run.trace.iter().map(|r| u64::from(r.wire_len)).sum();
                (run.trace.len(), bytes)
            });
        }
        s.run()
    };
    let serial = sweep(&Pool::serial());
    let pooled = sweep(&Pool::new(4));
    assert_eq!(serial, pooled, "sweep results must not depend on --jobs");
    let keys: Vec<u64> = pooled.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, seeds, "results come back sorted by seed");
}

/// The repro `watch` experiment in miniature: a mixed workload with the
/// streaming watcher attached, one tenant under-claiming its bursts.
fn watch_events() -> String {
    let out = TestbedBuilder::paper()
        .seed(1998)
        .bandwidth_bps(100_000_000)
        .build()
        .mix()
        .network(QosNetwork::new(12_500_000.0))
        .solo_baselines(false)
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            100,
            4,
            SimTime::ZERO,
        ))
        .tenant(
            MixTenant::kernel(
                "2DFFT",
                KernelKind::Fft2d,
                100,
                4,
                SimTime::from_millis(250),
            )
            .with_claim_scale(0.125),
        )
        .watch()
        .run();
    out.watch.expect("watch was enabled").events_jsonl()
}

#[test]
fn watch_events_are_unperturbed_by_pool_concurrency() {
    let alone = watch_events();
    // The same watch run while three other simulations saturate the
    // pool: the event log must not move by a byte.
    let results = Pool::new(4).map(vec![0u32, 1, 2, 3], |i| {
        if i == 1 {
            Some(watch_events())
        } else {
            run_program(Some(KernelKind::Hist));
            None
        }
    });
    let under_load = results.into_iter().flatten().next().expect("one watch run");
    assert_eq!(
        alone, under_load,
        "watch events must be identical under pool concurrency"
    );
}
