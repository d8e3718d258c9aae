//! `fabric-synth`: fabric events and the shard protocol with no engine,
//! PVM or TCP above them, and the write side of trace io.

use crate::bench::{add, queue_rates, timed, Bench, Ctx, Layers, PassStats, Res, ScratchFile};
use crate::digest::bytes_digest;
use crate::synth::Synth;

/// Waves per pass.
const WAVES: u32 = 2;

pub struct FabricBench {
    synth: Synth,
    shards: usize,
    file: ScratchFile,
}

impl FabricBench {
    pub fn new(seed: u64, rounds: u32, shards: usize) -> Res<FabricBench> {
        Ok(FabricBench {
            synth: Synth::new(seed, rounds),
            shards,
            file: ScratchFile::new("synth.fxb")?,
        })
    }
}

impl Bench for FabricBench {
    fn pass(&mut self, ctx: &mut Ctx) -> Res<PassStats> {
        let (outcome, wall_s, cpu_s) = timed(&mut ctx.tracer, |tracer| {
            self.synth.write(&self.file.0, WAVES, self.shards, tracer)
        })?;
        let outcome = outcome?;

        let frames = outcome.directory.frames();
        let file = std::fs::read(&self.file.0)?;
        // The merged delivery order is the same at any shard count, so
        // one pin serves hosts of every core count.
        ctx.checks.same(
            "fabric-synth",
            format!("frames={frames} file={}", bytes_digest(&file)),
        );
        ctx.checks
            .require(outcome.violations == 0, "violations == 0");
        ctx.checks.require(
            outcome.errors == 0 && outcome.ether.frames_dropped == 0,
            "frames_dropped == 0",
        );

        let mut counts = Layers::new();
        for (metric, value) in [
            ("sim.frames_delivered", outcome.ether.frames_delivered),
            ("sim.bytes_delivered", outcome.ether.bytes_delivered),
            ("sim.collisions", outcome.ether.collisions),
            ("sim.backoffs", outcome.ether.backoffs),
            ("sim.frames_dropped", outcome.ether.frames_dropped),
            ("shard.shards", outcome.shards as u64),
            ("shard.events", outcome.events),
            ("shard.null_rounds", outcome.null_rounds),
            ("shard.violations", outcome.violations),
            ("trace.file_bytes", file.len() as u64),
            ("trace.chunks", outcome.directory.len() as u64),
        ] {
            add(&mut counts, metric, value as f64);
        }
        add(
            &mut counts,
            "trace.bytes_per_frame",
            file.len() as f64 / frames as f64,
        );
        Ok(PassStats {
            wall_s,
            cpu_s,
            frames,
            sim_s: outcome.last_ns as f64 / 1e9,
            counts,
        })
    }

    fn ladder(&mut self, ctx: &mut Ctx, layers: &mut Layers, _wall_s: f64) -> Res<()> {
        // The same waves drained by the sequential loop.
        for _ in 0..WAVES {
            let mut fabric = self.synth.loaded_fabric(1);
            ctx.tracer
                .span("shard.drain_s1", |_| fabric.drain_parallel());
        }
        queue_rates(&mut ctx.tracer, layers);

        let events_per_s = layers["shard.events"] / ctx.tracer.seconds_by_name()["shard.drain"];
        add(layers, "shard.events_per_s", events_per_s);
        add(
            layers,
            "apps.unattributed_share",
            ctx.tracer.uncovered_share_of_passes(),
        );
        Ok(())
    }
}
