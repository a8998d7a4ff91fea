//! `freon_grid`: the §5 closed loop (workload → cluster → Mercury →
//! policy) over every emergency × policy cell, each through
//! `Experiment::run`. One op is one full grid pass.

use crate::report::{Outcome, SpanStats};
use crate::{timed_setup, Args, Phase, Result};
use cluster_sim::{ClusterSim, ServerConfig};
use freon::{
    EngineCommand, Experiment, ExperimentConfig, ExperimentLog, IncidentRecord, PolicySpec,
    ServerSnapshot, SpecPolicy, ThermalPolicy,
};
use mercury::fiddle::FiddleScript;
use mercury::model::ClusterModel;
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::units::{Seconds, Utilization};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Registry, Tracer};
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

/// Simulated seconds per cell (the paper's figures span 2000 s).
const DURATION_S: u64 = 2000;
const SERVERS: usize = 4;
/// Set-up repeats spread over each phase, after the initial set-up.
const SETUP_REPS: usize = 30;

/// The thermal emergencies, as fiddle scripts.
const EMERGENCIES: [(&str, &str); 2] = [
    (
        "fig11",
        "sleep 480\n\
         fiddle machine1 temperature inlet 38.6\n\
         fiddle machine3 temperature inlet 35.6\n",
    ),
    (
        "cooling_failure",
        "sleep 300\n\
         fiddle machine1 temperature inlet 36\n\
         fiddle machine2 temperature inlet 36\n\
         fiddle machine3 temperature inlet 36\n\
         fiddle machine4 temperature inlet 36\n",
    ),
];

/// Built-in policy specs, then the fan-boost spec shipped as TOML.
const BUILTINS: [&str; 4] = ["freon", "freon-ec", "traditional", "local-dvfs"];
const FAN_BOOST: &str = include_str!("../../crates/freon/policies/fan_boost.toml");

struct Setup {
    model: ClusterModel,
    trace: WorkloadTrace,
    scripts: Vec<FiddleScript>,
    specs: Vec<PolicySpec>,
}

/// The seeded §5 trace: a 2000 s diurnal valley → peak → valley sized
/// at 70% utilization of 4 servers, with 30% CGI requests.
fn paper_trace(seed: u64) -> WorkloadTrace {
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, SERVERS, 1000.0);
    let profile = DiurnalProfile::new(DURATION_S as f64, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.30);
    WorkloadGenerator::new(profile, mix, seed).generate(DURATION_S)
}

fn build(seed: u64, tracer: &Tracer) -> Result<Setup> {
    let span = tracer.start("workload.generate", "workload");
    let trace = paper_trace(seed);
    tracer.end(span);
    let scripts = EMERGENCIES
        .iter()
        .map(|(_, text)| FiddleScript::parse(text))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut specs: Vec<PolicySpec> = BUILTINS
        .iter()
        .map(|name| PolicySpec::builtin(name).ok_or(format!("no built-in policy {name}")))
        .collect::<std::result::Result<_, _>>()?;
    specs.push(PolicySpec::from_toml_str(FAN_BOOST)?);
    Ok(Setup {
        model: mercury::presets::freon_cluster(SERVERS),
        trace,
        scripts,
        specs,
    })
}

/// A policy adapter that records a `policy.control` span around each
/// control step of the wrapped spec policy.
#[derive(Debug)]
struct TimedPolicy {
    inner: SpecPolicy,
    tracer: Tracer,
    parent: u64,
}

impl ThermalPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        let span = self
            .tracer
            .start_child("policy.control", "freon", self.parent);
        self.inner.control(now_s, snapshots, sim);
        self.tracer.end(span);
    }

    fn register_metrics(&self, registry: &Registry) {
        self.inner.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.inner.drain_engine_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        // The engine hands over its own tracer, which stays detached:
        // only the benchmark's spans are recorded.
        self.inner.set_tracer(tracer);
    }

    fn incidents(&self) -> &[IncidentRecord] {
        self.inner.incidents()
    }
}

/// What one cell produced.
struct Cell {
    log: ExperimentLog,
    digest: u64,
    red_line_shutdowns: u64,
    decisions: u64,
    fan_commands: u64,
    power_state_changes: u64,
}

fn run_cell(
    setup: &Setup,
    script: &FiddleScript,
    spec: &PolicySpec,
    tracer: &Tracer,
    parent: u64,
) -> Result<Cell> {
    let registry = Arc::new(Registry::new());
    let config = ExperimentConfig {
        duration_s: DURATION_S,
        registry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let mut policy = TimedPolicy {
        inner: SpecPolicy::new(spec.clone(), SERVERS)?,
        tracer: tracer.clone(),
        parent,
    };
    let sim = ClusterSim::homogeneous(SERVERS, ServerConfig::default());
    let log =
        Experiment::new(&setup.model, sim, &setup.trace, Some(script), config)?.run(&mut policy)?;
    let snap = registry.snapshot();
    Ok(Cell {
        digest: digest(&log),
        red_line_shutdowns: policy.inner.red_line_shutdowns(),
        decisions: snap.counter_family("mercury_freon_decisions_total"),
        fan_commands: snap.counter_family("mercury_freon_policy_fan_commands_total"),
        power_state_changes: snap.counter_family("mercury_freon_power_state_changes_total"),
        log,
    })
}

/// FNV-1a over every logged value, floats by their bits.
fn digest(log: &ExperimentLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in log.rows() {
        eat(r.time_s);
        for v in r
            .cpu_temp
            .iter()
            .chain(&r.disk_temp)
            .chain(&r.cpu_util)
            .chain(&r.weight)
        {
            eat(v.to_bits());
        }
        for &c in &r.connections {
            eat(c as u64);
        }
        eat(r.active_servers as u64);
        eat(r.offered as u64);
        eat(r.dropped as u64);
        eat(r.completed as u64);
        eat(r.request_seconds.to_bits());
    }
    h
}

fn all_finite(log: &ExperimentLog) -> bool {
    log.rows()
        .iter()
        .all(|r| r.cpu_temp.iter().chain(&r.disk_temp).all(|t| t.is_finite()))
}

/// Largest share of requests the fig11 × freon cell may drop. The paper's
/// trace loses none, and neither does the seed-42 trace here, but a few
/// seeded traces burst past the throttled cluster's capacity near the
/// peak (seeds 2 and 29 of 1..=60 drop about 0.25% after 1750 s, and
/// nothing without the emergency). 0.5% is the bound the repository's
/// own Figure 12 check puts on Freon-EC.
const MAX_FREON_DROP_RATE: f64 = 0.005;

/// The paper's Figure 11 claims for the fig11 × freon cell: (almost) no
/// drops, no red-line shutdown, and machine1 (hotter inlet) crosses T_h
/// before machine3. `Err` says what was seen instead.
fn fig11_claims(cell: &Cell, spec: &PolicySpec) -> std::result::Result<(), String> {
    let th = spec
        .base_config()
        .thresholds_for("cpu")
        .map(|t| t.high)
        .ok_or("the freon spec has no cpu thresholds")?;
    let (m1, m3) = (
        cell.log.first_crossing(0, th),
        cell.log.first_crossing(2, th),
    );
    let dropped = cell.log.total_dropped();
    if cell.log.drop_rate() <= MAX_FREON_DROP_RATE
        && cell.red_line_shutdowns == 0
        && matches!((m1, m3), (Some(a), Some(b)) if a < b)
    {
        Ok(())
    } else {
        Err(format!(
            "fig11 x freon: dropped {dropped}, red-line shutdowns {}, T_h crossings machine1 {m1:?} machine3 {m3:?}",
            cell.red_line_shutdowns
        ))
    }
}

/// Re-drives the cell's inputs through the two layers the engine calls
/// each second, one span per call: `ClusterSim::tick` over the trace,
/// and `ClusterSolver::step` fed the logged CPU utilizations and the
/// emergency script.
fn redrive(
    setup: &Setup,
    script: &FiddleScript,
    log: &ExperimentLog,
    tracer: &Tracer,
) -> Result<()> {
    let root = tracer.start("grid.redrive", "bench");
    let mut sim = ClusterSim::homogeneous(SERVERS, ServerConfig::default());
    for t in 0..DURATION_S {
        let arrivals = setup.trace.arrivals_at(t);
        let span = tracer.start_child("cluster.tick", "cluster", root.id());
        std::hint::black_box(sim.tick(arrivals));
        tracer.end(span);
    }
    let mut solver = ClusterSolver::new(&setup.model, SolverConfig::default())?;
    solver.set_threads(1);
    let cpu: Vec<usize> = (0..SERVERS)
        .map(|i| solver.machine_at(i).node_index("cpu").ok_or("no cpu node"))
        .collect::<std::result::Result<_, _>>()?;
    let mut runner = script.runner();
    for (t, row) in log.rows().iter().enumerate() {
        runner.apply_due_to_cluster(Seconds(t as f64), &mut solver)?;
        for (i, &u) in row.cpu_util.iter().enumerate() {
            solver
                .machine_at_mut(i)
                .set_utilization_at(cpu[i], Utilization::new(u))?;
        }
        let span = tracer.start_child("solver.step", "solver", root.id());
        solver.step();
        tracer.end(span);
    }
    tracer.end(root);
    Ok(())
}

pub fn run(args: &Args, phases: &[Phase]) -> Result<Outcome> {
    let mut out = Outcome {
        work_per_op: (EMERGENCIES.len() * (BUILTINS.len() + 1) * SERVERS) as f64
            * DURATION_S as f64,
        work_unit: "machine-ticks",
        ..Default::default()
    };
    let setup = timed_setup(&mut out, || build(args.seed, &Tracer::disabled()))?;
    let mut spans = SpanStats::default();

    let mut reference: Option<Vec<u64>> = None;
    let mut redriven = false;
    let mut simulated_s = 0u64;
    for phase in phases {
        let tracer = &phase.tracer;
        let mut clock = phase.clock();
        while clock.running(&out) {
            if clock.setup_due(SETUP_REPS) {
                drop(timed_setup(&mut out, || build(args.seed, tracer))?);
            }
            let t0 = Instant::now();
            let pass = tracer.start("grid.pass", "bench");
            let mut cells = Vec::new();
            let mut error = None;
            for script in &setup.scripts {
                for spec in &setup.specs {
                    let span = tracer.start_child("grid.cell", "bench", pass.id());
                    match run_cell(&setup, script, spec, tracer, span.id()) {
                        Ok(cell) => cells.push(cell),
                        Err(e) => error = Some(e),
                    }
                    tracer.end(span);
                }
            }
            tracer.end(pass);
            let secs = t0.elapsed().as_secs_f64();

            if let Some(e) = error {
                eprintln!("perfbench: grid cell failed: {e}");
                out.check(false, "every cell runs");
                continue;
            }
            let digests: Vec<u64> = cells.iter().map(|c| c.digest).collect();
            let repeatable = reference.get_or_insert_with(|| digests.clone()) == &digests;
            let finite = cells.iter().all(|c| all_finite(&c.log));
            let claims = fig11_claims(&cells[0], &setup.specs[0]);
            out.check(
                repeatable && finite && claims.is_ok(),
                &format!("grid pass: repeatable {repeatable}, finite {finite}, {claims:?}"),
            );
            clock.record(&mut out, secs)?;
            if !out.layers.contains_key("sim.offered") {
                let sum = |f: fn(&Cell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
                let offered = sum(|c| c.log.total_offered());
                let dropped = sum(|c| c.log.total_dropped());
                out.layer("sim.offered", offered);
                out.layer("sim.dropped", dropped);
                out.layer("sim.dropped_frac", dropped / offered);
                out.layer("freon.decisions", sum(|c| c.decisions));
                out.layer("freon.fan_commands", sum(|c| c.fan_commands));
                out.layer("freon.power_state_changes", sum(|c| c.power_state_changes));
            }
            if phase.traced() {
                simulated_s += DURATION_S * cells.len() as u64;
                if !redriven {
                    let mut k = 0;
                    for script in &setup.scripts {
                        for _ in &setup.specs {
                            redrive(&setup, script, &cells[k].log, tracer)?;
                            k += 1;
                        }
                    }
                    redriven = true;
                }
                spans.absorb(&tracer.drain());
            }
        }
    }

    if let Some(phase) = phases.iter().find(|p| p.traced()) {
        let tick = spans.self_mean_us("cluster.tick");
        let step = spans.self_mean_us("solver.step");
        let control = spans.self_mean_us("policy.control");
        let per_second = spans.total_us("grid.cell") / simulated_s.max(1) as f64;
        out.layer(
            "workload.generate_ms",
            spans.mean_us("workload.generate") / 1e3,
        );
        out.layer("cluster.tick_us", tick);
        out.layer("solver.step_us", step);
        out.layer("policy.control_us", control);
        out.layer("engine.residual_us", per_second - tick - step - control);
        out.layer("solver.simd_lane_width", simd_lane_width()?);
        out.layer("tracing.spans_dropped", phase.tracer.dropped() as f64);
        out.notes.push(format!(
            "spans: grid.cell n={} policy.control n={} cluster.tick n={} solver.step n={}",
            spans.count("grid.cell"),
            spans.count("policy.control"),
            spans.count("cluster.tick"),
            spans.count("solver.step"),
        ));
    }
    Ok(out)
}

fn simd_lane_width() -> Result<f64> {
    let solver = ClusterSolver::new(
        &mercury::presets::freon_cluster(SERVERS),
        SolverConfig::default(),
    )?;
    let registry = Registry::new();
    solver.metrics().register(&registry);
    Ok(registry
        .snapshot()
        .gauge("mercury_solver_simd_lane_width")
        .unwrap_or(0.0))
}
