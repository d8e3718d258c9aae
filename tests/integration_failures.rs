//! Failure injection: OS descheduling (the paper's burst-merging
//! artifact, §6.1) and the lossy-bus extension with TCP recovery.

use fxnet::apps::sor::{sor_rank, sor_sequential, SorParams};
use fxnet::apps::KernelKind;
use fxnet::trace::TraceStore;
use fxnet::{SimTime, Testbed, TestbedBuilder};

#[test]
fn deschedule_injection_stalls_the_synchronous_schedule() {
    // §6.1 on 2DFFT: "the third and fourth burst are short because they
    // are, in fact, a single communication phase where some processor
    // descheduled the program ... the communication phase stalled until
    // that processor was able to send again." With injection the run
    // takes longer and the worst interarrival gap grows.
    let clean = TestbedBuilder::paper()
        .seed(11)
        .build()
        .run_kernel(KernelKind::Fft2d, 20)
        .unwrap();
    let slowed = TestbedBuilder::paper()
        .seed(11)
        .deschedule(SimTime::from_millis(400), SimTime::from_millis(150))
        .build()
        .run_kernel(KernelKind::Fft2d, 20)
        .unwrap();
    assert!(
        slowed.finished_at > clean.finished_at,
        "descheduling must stretch the run ({} vs {})",
        slowed.finished_at,
        clean.finished_at
    );
    let g_clean = TraceStore::from_records(&clean.trace)
        .view()
        .interarrivals_ms()
        .unwrap()
        .max;
    let g_slow = TraceStore::from_records(&slowed.trace)
        .view()
        .interarrivals_ms()
        .unwrap()
        .max;
    assert!(
        g_slow > g_clean,
        "stalls must appear as longer silent gaps ({g_slow:.0} vs {g_clean:.0} ms)"
    );
}

#[test]
fn deschedule_preserves_results() {
    let params = SorParams::tiny();
    let want = sor_sequential(&params, 4);
    let p2 = params.clone();
    let run = TestbedBuilder::quiet(4)
        .deschedule(SimTime::from_millis(50), SimTime::from_millis(30))
        .build()
        .run(move |ctx| sor_rank(ctx, &p2));
    assert_eq!(run.results, want, "descheduling must not corrupt data");
}

#[test]
fn lossy_bus_recovers_correct_results_via_retransmission() {
    let params = SorParams::tiny();
    let want = sor_sequential(&params, 4);
    let p2 = params.clone();
    let run = TestbedBuilder::quiet(4)
        .loss(0.05)
        .build()
        .run(move |ctx| sor_rank(ctx, &p2));
    assert_eq!(run.results, want, "TCP must mask frame corruption");
}

#[test]
fn lossy_bus_stretches_the_run() {
    let params = SorParams::tiny();
    let p1 = params.clone();
    let clean = Testbed::quiet(4).run(move |ctx| sor_rank(ctx, &p1));
    let p2 = params.clone();
    let lossy = TestbedBuilder::quiet(4)
        .loss(0.08)
        .build()
        .run(move |ctx| sor_rank(ctx, &p2));
    assert!(
        lossy.finished_at > clean.finished_at,
        "retransmission timeouts must cost simulated time ({} vs {})",
        lossy.finished_at,
        clean.finished_at
    );
}

#[test]
fn heavy_contention_still_delivers_everything() {
    // All four ranks blast simultaneously: collisions and backoff must
    // resolve without losing a message (MAC-level stress).
    let run = Testbed::quiet(4).run(|ctx| {
        let me = ctx.rank();
        let mut b = fxnet::pvm::MessageBuilder::new(0);
        b.pack_f64(&vec![f64::from(me); 20_000]);
        let msg = b.finish();
        for d in 0..4 {
            if d != me {
                ctx.send(d, msg.clone());
            }
        }
        let mut got = 0;
        for s in 0..4 {
            if s != me {
                let m = ctx.recv(s);
                assert_eq!(m.reader().f64s(20_000)[0], f64::from(s));
                got += 1;
            }
        }
        got
    });
    assert!(run.results.iter().all(|&g| g == 3));
    assert!(
        run.ether.collisions > 0,
        "simultaneous senders must collide"
    );
    assert_eq!(run.ether.frames_dropped, 0);
}

#[test]
fn burst_structure_survives_mild_loss() {
    // The periodicity claim is robust: mild corruption does not destroy
    // the quiet/burst alternation.
    let run = TestbedBuilder::paper()
        .seed(13)
        .loss(0.01)
        .build()
        .run_kernel(KernelKind::Hist, 10)
        .unwrap();
    let series = TraceStore::from_records(&run.trace)
        .view()
        .binned_bandwidth(SimTime::from_millis(10));
    let quiet = series.iter().filter(|&&v| v < 1000.0).count();
    assert!(quiet * 10 > series.len(), "quiet gaps must persist");
}
