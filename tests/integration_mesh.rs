//! A `recv`'s content goes rank to rank, while the sequencer still
//! pushes every message through PVM, TCP and the MAC. In debug builds
//! (tier-1 runs the tests unoptimised) the sequencer checks each message
//! it delivers against the one its sender posted: tag, source and body,
//! and the fragment count on the direct route. These runs put all six
//! programs through that check on the direct route, the daemon route, a
//! lossy bus and two-tenant mixes, and each must give the results of a
//! quiet direct run.

use fxnet::apps::airshed::{airshed_rank, AirshedParams};
use fxnet::apps::{checksum, fft2d, hist, seq, sor, t2dfft};
use fxnet::fx::{run, GroupSpec, RankCtx, RunOptions};
use fxnet::pvm::Route;
use fxnet::{SimTime, Testbed, TestbedBuilder};
use std::sync::Arc;

type Program = Arc<dyn Fn(&mut RankCtx) -> u64 + Send + Sync>;

/// The six programs at `tiny()` scale, each returning a checksum of what
/// its rank computed. T2DFFT runs at N = 64, where its messages have six
/// fragments (at `tiny()` they have one).
fn programs() -> [(&'static str, Program); 6] {
    let (sor, fft, tfft) = (
        sor::SorParams::tiny(),
        fft2d::FftParams::tiny(),
        t2dfft::T2dfftParams { n: 64, iters: 2 },
    );
    let (seq, hist, air) = (
        seq::SeqParams::tiny(),
        hist::HistParams::tiny(),
        AirshedParams::tiny(),
    );
    [
        ("SOR", Arc::new(move |ctx| sor::sor_rank(ctx, &sor))),
        ("2DFFT", Arc::new(move |ctx| fft2d::fft2d_rank(ctx, &fft))),
        (
            "T2DFFT",
            Arc::new(move |ctx| t2dfft::t2dfft_rank(ctx, &tfft)),
        ),
        ("SEQ", Arc::new(move |ctx| seq::seq_rank(ctx, &seq))),
        (
            "HIST",
            Arc::new(move |ctx| {
                let h = hist::hist_rank(ctx, &hist);
                checksum(&h.iter().map(|&v| f64::from(v)).collect::<Vec<_>>())
            }),
        ),
        ("AIRSHED", Arc::new(move |ctx| airshed_rank(ctx, &air))),
    ]
}

/// Each program's per-rank results on `tb`, run alone.
fn alone(tb: &Testbed) -> Vec<Vec<u64>> {
    programs()
        .into_iter()
        .map(|(_, prog)| tb.run(move |ctx| prog(ctx)).results)
        .collect()
}

#[test]
fn every_delivery_is_the_message_its_receiver_took() {
    let want = alone(&Testbed::quiet(4));
    for (setting, tb) in [
        (
            "daemon route",
            TestbedBuilder::quiet(4).route(Route::Daemon),
        ),
        ("lossy bus", TestbedBuilder::quiet(4).loss(0.05)),
    ] {
        assert_eq!(alone(&tb.build()), want, "{setting}");
    }
    // Two programs at a time on one bus, the second starting 3 ms late:
    // their messages interleave on the wire and in the sequencer.
    let progs = programs();
    for pair in [[0, 4], [1, 3], [2, 5]] {
        let groups = pair
            .iter()
            .enumerate()
            .map(|(g, &i)| {
                let (name, prog) = progs[i].clone();
                let start = SimTime::from_millis(3 * g as u64);
                GroupSpec::new(name, 4, start, move |ctx: &mut RankCtx| prog(ctx))
            })
            .collect();
        let cfg = Testbed::quiet(8).config().clone();
        let res = run(cfg, groups, RunOptions::default()).expect("valid config");
        for (g, &i) in pair.iter().enumerate() {
            assert_eq!(
                res.group_results(g),
                want[i],
                "{} beside another",
                progs[i].0
            );
        }
    }
}
