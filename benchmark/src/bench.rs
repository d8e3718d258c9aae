//! What the child asks of a workload: timed passes and, in a traced
//! run, the drives that measure its layers one at a time.

use crate::checks::Checks;
use crate::procfs;
use crate::span::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Numbers by metric name.
pub type Layers = BTreeMap<String, f64>;

pub fn add(layers: &mut Layers, name: &str, value: f64) {
    *layers.entry(name.to_string()).or_default() += value;
}

/// The recorder and the gate a workload reports to.
pub struct Ctx {
    pub tracer: Tracer,
    pub checks: Checks,
}

/// One pass, as measured.
pub struct PassStats {
    /// Host seconds of the timed part; verification is not in it.
    pub wall_s: f64,
    /// User + system CPU seconds of the timed part, all threads.
    pub cpu_s: f64,
    pub frames: u64,
    /// Simulated seconds the pass covered.
    pub sim_s: f64,
    /// Counts the program exported during the pass.
    pub counts: Layers,
}

pub trait Bench {
    /// One closed-loop pass: the timed work under a root span, then the
    /// untimed checks of what it produced.
    fn pass(&mut self, ctx: &mut Ctx) -> Res<PassStats>;

    /// Drive each layer the workload enters on its own, every drive a
    /// root span, and add what only the ladder can know to `layers`.
    /// `wall_s` is the median untraced pass.
    fn ladder(&mut self, ctx: &mut Ctx, layers: &mut Layers, wall_s: f64) -> Res<()>;
}

/// Run `work` under the root span of a pass, and time it.
pub fn timed<R>(tracer: &mut Tracer, work: impl FnOnce(&mut Tracer) -> R) -> Res<(R, f64, f64)> {
    let cpu0 = procfs::cpu_seconds()?;
    let t0 = Instant::now();
    let out = tracer.span("pass", work);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds()? - cpu0;
    Ok((out, wall_s, cpu_s))
}

/// Pending pop-push rounds of the queue hold model.
const QUEUE_HOLD_ROUNDS: u64 = 1_000_000;
const QUEUE_PENDING: u64 = 1024;

/// Operations per second of the two event queues the fabrics run on,
/// under the classic hold model: 1024 events pending, each round pops
/// the earliest and pushes one a pseudo-random MAC-scale offset later.
pub fn queue_rates(tracer: &mut Tracer, layers: &mut Layers) {
    use fxnet::sim::{EventKey, EventQueue, KeyedQueue};
    use fxnet::SimTime;

    fn hold<Q>(mut q: Q, push: impl Fn(&mut Q, u64, u64), pop: impl Fn(&mut Q) -> u64) -> f64 {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut offset = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            100 + state.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1_200_000
        };
        for i in 0..QUEUE_PENDING {
            push(&mut q, offset(), i);
        }
        let t0 = Instant::now();
        for i in 0..QUEUE_HOLD_ROUNDS {
            let now = pop(&mut q);
            push(&mut q, now + offset(), QUEUE_PENDING + i);
        }
        2.0 * QUEUE_HOLD_ROUNDS as f64 / t0.elapsed().as_secs_f64()
    }

    let keyed = tracer.span("sim.keyed_queue", |_| {
        hold(
            KeyedQueue::<u64>::new(),
            |q, t, i| q.push(EventKey::calendar(SimTime::from_nanos(t), i, 0), i),
            |q| q.pop().expect("held").0.time.as_nanos(),
        )
    });
    let calendar = tracer.span("sim.calendar_queue", |_| {
        hold(
            EventQueue::<u64>::new(),
            |q, t, i| q.push(SimTime::from_nanos(t), i),
            |q| q.pop().expect("held").0.as_nanos(),
        )
    });
    add(layers, "sim.keyed_queue_ops_per_s", keyed);
    add(layers, "sim.calendar_queue_ops_per_s", calendar);
}

/// A scratch file under `benchmark/out/`, removed when dropped.
pub struct ScratchFile(pub std::path::PathBuf);

impl ScratchFile {
    pub fn new(name: &str) -> Res<ScratchFile> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchFile(
            dir.join(format!("tmp_{}_{name}", std::process::id())),
        ))
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        // Best effort: the file may never have been created.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `benchmark/out/`: results, span files and scratch traces.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
