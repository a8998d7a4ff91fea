//! `fleet_replay` and `fleet_fanboost`: a 1024-machine room replayed out
//! of core from a `mercury-events-v1` file in equal fixed-tick ops. The
//! fan-boost variant also toggles half the racks' fans through the
//! fiddle path inside every op.

use crate::report::{Outcome, SpanStats};
use crate::{timed_setup, Args, Phase, Result, Rng};
use mercury::fiddle::{FiddleCommand, FiddleScript};
use mercury::model::ClusterModel;
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::trace::events;
use mercury::trace::stream::{ClusterBinding, EventsStream, ReplayMetrics};
use mercury::trace::UtilizationTrace;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::{Registry, Tracer};

const MACHINES: usize = 1024;
/// Ticks in the trace; one pass replays all of them from a fresh room.
const TICKS: u64 = 1000;
/// Ticks per `replay_ticks` call; an op is two calls.
const HALF: u64 = 50;
const RACK: usize = 32;
const COMPONENTS: [&str; 2] = ["cpu", "disk_platters"];
/// What `fan_boost.toml` commands, and the Table 1 fan speed.
const BOOST_CFM: f64 = 90.0;
const NOMINAL_CFM: f64 = 38.6;
/// Set-up repeats spread over each phase, after the initial set-up.
const SETUP_REPS: usize = 8;
/// Where the encoded trace is written, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

/// The synthesized fleet trace: every fourth machine draws new inputs
/// each tick; the rest hold each input for 20–60 ticks, with
/// per-machine phases so their changes do not line up.
fn synthesize(seed: u64) -> Result<Vec<UtilizationTrace>> {
    let mut rng = Rng::new(seed);
    let mut traces = Vec::with_capacity(MACHINES);
    for m in 0..MACHINES {
        let mut trace = UtilizationTrace::new(
            format!("machine{}", m + 1),
            1.0,
            COMPONENTS.iter().map(|c| c.to_string()).collect(),
        )?;
        let hold = if m % 4 == 0 {
            1
        } else {
            20 + rng.next_u64() % 41
        };
        let phase = rng.next_u64() % hold;
        let mut row = [0.0; 2];
        for t in 0..TICKS {
            if t == 0 || (t + phase).is_multiple_of(hold) {
                row = [rng.range(0.05, 0.95), rng.range(0.05, 0.95)];
            }
            trace.push_row(&row)?;
        }
        traces.push(trace);
    }
    Ok(traces)
}

/// One pass's room, stream and counters.
struct Pass {
    cluster: ClusterSolver,
    stream: EventsStream,
    binding: ClusterBinding,
    registry: Registry,
    ticks: u64,
    spans: u64,
    batched_ticks: u64,
    ops: usize,
}

impl Pass {
    fn new(model: &ClusterModel, path: &Path) -> Result<Pass> {
        let mut cluster = ClusterSolver::new(model, SolverConfig::default())?;
        cluster.set_threads(1);
        let registry = Registry::new();
        cluster.metrics().register(&registry);
        let mut stream = EventsStream::open(path)?;
        let replay = ReplayMetrics::new();
        replay.register(&registry);
        stream.set_metrics(replay);
        let binding = ClusterBinding::new(stream.header(), &cluster)?;
        Ok(Pass {
            cluster,
            stream,
            binding,
            registry,
            ticks: 0,
            spans: 0,
            batched_ticks: 0,
            ops: 0,
        })
    }

    /// The pass's exact work counters.
    fn counters(&self) -> [u64; 6] {
        let snap = self.registry.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        [
            count("mercury_replay_frames_decoded_total"),
            self.spans,
            count("mercury_cluster_solo_demotions_total"),
            count("mercury_solver_flow_recomputes_total"),
            count("mercury_solver_substeps_total"),
            snap.gauge("mercury_solver_simd_lane_width").unwrap_or(0.0) as u64,
        ]
    }
}

struct Setup {
    model: ClusterModel,
    path: PathBuf,
    boost: Vec<FiddleCommand>,
    restore: Vec<FiddleCommand>,
    first: Option<Pass>,
}

/// Fan edits for the even racks, as `fiddle` commands.
fn rack_fans(cfm: f64) -> Result<Vec<FiddleCommand>> {
    let mut script = String::new();
    for m in (0..MACHINES).filter(|m| (m / RACK).is_multiple_of(2)) {
        script.push_str(&format!("fiddle machine{} fanspeed {cfm}\n", m + 1));
    }
    Ok(FiddleScript::parse(&script)?
        .events()
        .iter()
        .map(|e| e.command.clone())
        .collect())
}

fn build(seed: u64, path: &Path, tracer: &Tracer) -> Result<Setup> {
    let traces = synthesize(seed)?;
    let span = tracer.start("trace.encode", "trace");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    events::encode(&traces, &mut out)?;
    out.flush()?;
    drop(out);
    tracer.end(span);
    drop(traces);
    let model = mercury::presets::validation_cluster(MACHINES);
    let span = tracer.start("solver.build", "solver");
    let first = Pass::new(&model, path)?;
    tracer.end(span);
    Ok(Setup {
        model,
        path: path.to_path_buf(),
        boost: rack_fans(BOOST_CFM)?,
        restore: rack_fans(NOMINAL_CFM)?,
        first: Some(first),
    })
}

/// One op: two `replay_ticks` calls, each preceded in the fan-boost
/// workload by a rack fan edit (boost, then restore).
fn op(pass: &mut Pass, setup: &Setup, fanboost: bool, tracer: &Tracer) -> Result<()> {
    let root = tracer.start("fleet.op", "bench");
    for edits in [&setup.boost, &setup.restore] {
        if fanboost {
            let span = tracer.start_child("solver.fiddle", "solver", root.id());
            for command in edits {
                command.apply_to_cluster(&mut pass.cluster)?;
            }
            tracer.end(span);
        }
        let span = tracer.start_child("trace.replay_ticks", "trace", root.id());
        let stats = pass
            .stream
            .replay_ticks(&pass.binding, &mut pass.cluster, HALF)?;
        tracer.end(span);
        pass.ticks += stats.ticks;
        pass.spans += stats.spans;
        pass.batched_ticks += pass.cluster.batched_machines() as u64 * stats.ticks;
    }
    tracer.end(root);
    pass.ops += 1;
    Ok(())
}

/// Removes the encoded trace when the run ends, however it ends.
struct WorkFile(PathBuf);

impl Drop for WorkFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

pub fn run(args: &Args, phases: &[Phase], fanboost: bool) -> Result<Outcome> {
    std::fs::create_dir_all(WORK_DIR)?;
    let work = WorkFile(Path::new(WORK_DIR).join(format!("fleet-{}.events", std::process::id())));
    let mut out = Outcome {
        work_per_op: (MACHINES as u64 * 2 * HALF) as f64,
        work_unit: "machine-ticks",
        ..Default::default()
    };
    let mut setup = timed_setup(&mut out, || build(args.seed, &work.0, &Tracer::disabled()))?;
    // Repeat set-ups write their own trace file: the replayed one stays
    // mapped while they run.
    let repeat = WorkFile(work.0.with_extension("setup.events"));
    let mut spans = SpanStats::default();

    let mut pass = setup.first.take().expect("set-up builds the first pass");
    // Checkpoint after each op of the first pass; every later pass must
    // reproduce them bit for bit, as must its counters.
    let mut reference: Vec<Vec<u8>> = Vec::new();
    let mut first_counters: Option<[u64; 6]> = None;
    let mut first_batched: Option<u64> = None;
    for phase in phases {
        let tracer = &phase.tracer;
        let mut clock = phase.clock();
        // A run replays at least one whole pass, whose counters it reports.
        while clock.running(&out) || (first_counters.is_none() && out.failed == 0) {
            if clock.setup_due(SETUP_REPS) {
                drop(timed_setup(&mut out, || {
                    build(args.seed, &repeat.0, tracer)
                })?);
            }
            let t0 = Instant::now();
            let result = op(&mut pass, &setup, fanboost, tracer);
            let secs = t0.elapsed().as_secs_f64();
            if let Err(e) = result {
                eprintln!("perfbench: replay op failed: {e}");
                out.check(false, "every op replays");
                pass = Pass::new(&setup.model, &setup.path)?;
                continue;
            }
            let blob = pass.cluster.checkpoint();
            let i = pass.ops - 1;
            let mut ok = match reference.get(i) {
                Some(expected) => *expected == blob,
                None => {
                    reference.push(blob);
                    true
                }
            };
            let done = pass.ticks >= TICKS;
            if done {
                let counters = pass.counters();
                ok &= *first_counters.get_or_insert(counters) == counters;
                first_batched.get_or_insert(pass.batched_ticks);
            }
            out.check(ok, "op checkpoint and pass counters match the first pass");
            clock.record(&mut out, secs)?;
            if phase.traced() {
                spans.absorb(&tracer.drain());
            }
            if done {
                pass = Pass::new(&setup.model, &setup.path)?;
            }
        }
    }
    drop(pass);

    if let Some(phase) = phases.iter().find(|p| p.traced()) {
        let tracer = &phase.tracer;
        for _ in 0..3 {
            let mut stream = EventsStream::open(&setup.path)?;
            let span = tracer.start("trace.seek", "trace");
            stream.seek(TICKS)?;
            tracer.end(span);
        }
        spans.absorb(&tracer.drain());
        let decode_ns = spans.mean_us("trace.seek") * 1e3 / TICKS as f64;
        let counters = first_counters.ok_or("the run ended before one full pass")?;
        out.layer("trace.encode_s", spans.mean_us("trace.encode") / 1e6);
        out.layer("solver.build_s", spans.mean_us("solver.build") / 1e6);
        out.layer("trace.decode_ns_per_tick", decode_ns);
        out.layer(
            "solver.chunk_us_per_tick",
            spans.mean_us("trace.replay_ticks") / HALF as f64 - decode_ns / 1e3,
        );
        out.layer("solver.fiddle_us", spans.mean_us("solver.fiddle"));
        out.layer(
            "solver.batched_frac",
            first_batched.unwrap_or(0) as f64 / (MACHINES as u64 * TICKS) as f64,
        );
        out.layer("trace.frames_decoded", counters[0] as f64);
        out.layer("trace.spans", counters[1] as f64);
        out.layer("solver.solo_demotions", counters[2] as f64);
        out.layer("solver.flow_recomputes", counters[3] as f64);
        out.layer("solver.substeps", counters[4] as f64);
        out.layer("solver.simd_lane_width", counters[5] as f64);
        out.layer("tracing.spans_dropped", tracer.dropped() as f64);
        out.notes.push(format!(
            "spans: trace.replay_ticks n={} solver.fiddle n={} trace.seek n={}",
            spans.count("trace.replay_ticks"),
            spans.count("solver.fiddle"),
            spans.count("trace.seek"),
        ));
    }
    Ok(out)
}
