//! End-to-end provenance properties over the six measured programs:
//! every data frame's cause chain terminates at exactly one application
//! op, delivered bytes conserve against committed bytes, and tagging is
//! invisible — a tagged run's trace is byte-identical to an untagged
//! run's, across seeds and both PVM routes.

use fxnet_apps::{airshed, KernelKind};
use fxnet_causal::{blame_violation, collective_paths, CauseDag, Provenance};
use fxnet_fx::{run_single, RunOptions, RunResult, SpmdConfig};
use fxnet_mix::{Mix, MixTenant, TenantProgram};
use fxnet_pvm::TenantMap;
use fxnet_sim::{FrameKind, SimTime};

const DIV: usize = 300;
const SEEDS: [u64; 2] = [1998, 7];

fn cfg(seed: u64) -> SpmdConfig {
    let mut cfg = SpmdConfig {
        p: 4,
        hosts: 9,
        seed,
        ..SpmdConfig::default()
    };
    cfg.pvm.net.seed = seed ^ 0x00C0_FFEE;
    cfg
}

fn causal_opts() -> RunOptions {
    RunOptions {
        causal: true,
        ..RunOptions::default()
    }
}

#[derive(Clone, Copy)]
enum Program {
    Kernel(KernelKind),
    Airshed,
}

fn run_program(p: Program, cfg: SpmdConfig, opts: RunOptions) -> RunResult<u64> {
    match p {
        Program::Kernel(k) => k.run_paper_opts(cfg, DIV, opts).expect("valid config"),
        Program::Airshed => {
            let params = airshed::AirshedParams::tiny();
            run_single(cfg, move |ctx| airshed::airshed_rank(ctx, &params), opts)
                .expect("valid config")
        }
    }
}

/// The shared property: tagged trace byte-identical to untagged, every
/// frame tagged in trace order, every data frame resolving to exactly
/// one application op, and per-op byte conservation.
fn assert_provenance(p: Program) {
    for seed in SEEDS {
        let tagged = run_program(p, cfg(seed), causal_opts());
        let untagged = run_program(p, cfg(seed), RunOptions::default());
        assert_eq!(
            tagged.trace, untagged.trace,
            "causal capture must not perturb the trace (seed {seed})"
        );

        let run = tagged.causal.as_ref().expect("causal capture attached");
        assert!(!run.ops.is_empty(), "programs send messages");
        assert_eq!(
            run.events.len(),
            tagged.trace.len(),
            "one causal event per trace row"
        );

        let dag = CauseDag::build(run, &tagged.trace[..]).expect("one event per row");
        for (i, r) in tagged.trace.iter().enumerate() {
            if r.kind == FrameKind::Data {
                assert!(
                    matches!(dag.provenance(i), Provenance::Op { .. }),
                    "data frame {i} must trace to an application op (seed {seed})"
                );
            } else {
                assert!(
                    !matches!(dag.provenance(i), Provenance::Unknown),
                    "frame {i} has no cause at all (seed {seed})"
                );
            }
        }
        let report = dag.check_conservation().unwrap_or_else(|e| {
            panic!("conservation failed (seed {seed}): {e}");
        });
        assert!(report.data_bytes > 0);
    }
}

#[test]
fn sor_conserves_and_tags_invisibly() {
    assert_provenance(Program::Kernel(KernelKind::Sor));
}

#[test]
fn fft2d_conserves_and_tags_invisibly() {
    assert_provenance(Program::Kernel(KernelKind::Fft2d));
}

#[test]
fn t2dfft_conserves_and_tags_invisibly() {
    assert_provenance(Program::Kernel(KernelKind::T2dfft));
}

#[test]
fn seq_conserves_and_tags_invisibly() {
    assert_provenance(Program::Kernel(KernelKind::Seq));
}

#[test]
fn hist_conserves_and_tags_invisibly() {
    assert_provenance(Program::Kernel(KernelKind::Hist));
}

#[test]
fn airshed_conserves_and_tags_invisibly() {
    assert_provenance(Program::Airshed);
}

#[test]
fn daemon_route_conserves_through_udp_grams() {
    let mut c = cfg(1998);
    c.pvm.route = fxnet_pvm::Route::Daemon;
    let r = run_program(Program::Kernel(KernelKind::Hist), c.clone(), causal_opts());
    let run = r.causal.as_ref().expect("causal capture");
    let dag = CauseDag::build(run, &r.trace[..]).expect("one event per row");
    dag.check_conservation()
        .unwrap_or_else(|e| panic!("daemon-route conservation failed: {e}"));
    // Daemon acks and heartbeats terminate at protocol causes, not ops.
    assert!(r.trace.iter().any(|row| row.kind == FrameKind::Datagram));
    let untagged = run_program(Program::Kernel(KernelKind::Hist), c, RunOptions::default());
    assert_eq!(r.trace, untagged.trace);
}

#[test]
fn collective_critical_paths_sum_exactly_to_elapsed_time() {
    let r = run_program(Program::Kernel(KernelKind::Sor), cfg(1998), causal_opts());
    let run = r.causal.as_ref().expect("causal capture");
    let spans = &r.telemetry.as_ref().expect("causal forces telemetry").spans;
    let map = TenantMap::pack([("SOR".to_string(), 4)]);
    let paths = collective_paths(run, &r.trace[..], spans, &map);
    assert!(!paths.is_empty(), "SOR has boundary exchanges");
    for p in &paths {
        assert_eq!(
            p.segments.total_ns(),
            p.elapsed_ns,
            "{}#{} segments must sum to the straggler's elapsed time",
            p.name,
            p.instance
        );
        assert!(p.straggler_rank < 4);
        assert_eq!(p.tenant, "SOR");
    }
    assert!(
        paths.iter().any(|p| p.frames > 0),
        "stragglers put frames on the wire"
    );
    assert!(paths.iter().any(|p| p.blocking_link.is_some()));
}

#[test]
fn watcher_violation_blames_the_overdriving_tenant() {
    let mut c = SpmdConfig::default();
    c.pvm.heartbeat = None;
    c.hosts = 1;
    let tenant = |name: &str, start_ms: u64, claim: f64| MixTenant {
        name: name.to_string(),
        program: TenantProgram::Shift {
            work_s: 0.05,
            bytes: 20_000,
            rounds: 4,
        },
        p: 2,
        start: SimTime::from_millis(start_ms),
        claim_scale: claim,
    };
    let out = Mix::new(c.clone())
        .solo_baselines(false)
        .watch()
        .causal(true)
        .tenant(tenant("honest", 0, 1.0))
        .tenant(tenant("liar", 30, 0.1))
        .run();
    let watch = out.watch.as_ref().expect("watch report");
    let event = watch
        .events
        .iter()
        .find(|e| e.tenant == "liar")
        .expect("liar violation");
    let run = out.causal.as_ref().expect("causal capture");
    let blame = blame_violation(event, run, &out.store, &out.map);
    assert!(blame.matched, "flight recorder located in causal stream");
    let top = blame.top().expect("causing chains");
    assert_eq!(top.tenant, "liar", "blame lands on the over-driver");
    assert!(top.bytes > 0 && top.ops > 0);

    // Watching + causal capture together still perturb nothing.
    let plain = Mix::new(c)
        .solo_baselines(false)
        .tenant(tenant("honest", 0, 1.0))
        .tenant(tenant("liar", 30, 0.1))
        .run();
    assert_eq!(out.store, plain.store);
}
