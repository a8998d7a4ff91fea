//! Benchmark of the Mercury & Freon reproduction: four workloads driven
//! through the crates' public APIs, with per-op output checks.
//!
//! ```text
//! perfbench --workload <freon_grid|fleet_replay|fleet_fanboost|net_loop>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` spends half
//! the run untraced and half with the benchmark's own span tracer
//! attached, and prints the per-layer metrics. The last stdout line is
//! one JSON object; `#` lines before it are diagnostics. Run it through
//! `perfbench/run.py`, which builds it and pins it to one CPU.

mod affinity;
mod fleet;
mod grid;
mod netloop;
mod report;

use report::{Host, Outcome, SPAN_CAPACITY};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use telemetry::Tracer;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// How long the process stays on one CPU before it moves to the next.
const SLICE: Duration = Duration::from_millis(500);

/// One timed phase of a run: how long it lasts, the tracer its spans go
/// to (detached in an untraced phase, so every span is a no-op), and the
/// CPUs its ops take turns on.
pub struct Phase {
    pub tracer: Tracer,
    pub seconds: f64,
    cpus: Vec<usize>,
}

impl Phase {
    /// The phases of a run: one untraced phase, or an untraced and a
    /// traced half, so tracing overhead is measured within one process.
    fn of(args: &Args, cpus: &[usize]) -> Vec<Phase> {
        let phase = |tracer, seconds| Phase {
            tracer,
            seconds,
            cpus: cpus.to_vec(),
        };
        if args.trace {
            vec![
                phase(Tracer::disabled(), args.seconds / 2.0),
                phase(Tracer::new(SPAN_CAPACITY), args.seconds / 2.0),
            ]
        } else {
            vec![phase(Tracer::disabled(), args.seconds)]
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_attached()
    }

    /// Starts this phase's op loop.
    pub fn clock(&self) -> Clock<'_> {
        Clock {
            phase: self,
            start: Instant::now(),
            slice: Instant::now(),
            slot: 0,
            warm: false,
            setups: 0,
        }
    }
}

/// Paces one phase's op loop and files its op times.
pub struct Clock<'a> {
    phase: &'a Phase,
    start: Instant,
    slice: Instant,
    slot: usize,
    warm: bool,
    setups: usize,
}

impl Clock<'_> {
    /// Whether to run another op: until the phase's time is up, and past
    /// it until one op has been timed, unless ops are failing.
    pub fn running(&self, outcome: &Outcome) -> bool {
        let timed = if self.phase.traced() {
            &outcome.traced_op_secs
        } else {
            &outcome.op_secs
        };
        self.start.elapsed().as_secs_f64() < self.phase.seconds
            || (timed.seen() == 0 && outcome.failed == 0)
    }

    /// Whether a repeat set-up is due: `reps` of them are spread evenly
    /// over the phase. A burst of sub-second set-ups at start-up would
    /// all land in whatever slow or fast spell the host is in; spread
    /// out, their median is as steady as the run's op times.
    pub fn setup_due(&mut self, reps: usize) -> bool {
        let next = (self.setups + 1) as f64 * self.phase.seconds / (reps + 1) as f64;
        let due = self.setups < reps && self.start.elapsed().as_secs_f64() >= next;
        self.setups += usize::from(due);
        due
    }

    /// Files an op's host seconds (the phase's first op warms caches and
    /// is untimed), then moves the process to the next CPU once its
    /// slice is over.
    pub fn record(&mut self, outcome: &mut Outcome, secs: f64) -> Result<()> {
        if self.warm {
            if self.phase.traced() {
                outcome.traced_op_secs.push(secs);
            } else {
                outcome.op_secs.push(secs);
            }
        }
        self.warm = true;
        let cpus = &self.phase.cpus;
        if cpus.len() > 1 && self.slice.elapsed() >= SLICE {
            self.slot = (self.slot + 1) % cpus.len();
            affinity::pin_all(cpus[self.slot])?;
            self.slice = Instant::now();
        }
        Ok(())
    }
}

/// Times one set-up and files its host seconds under `setup_s`.
pub fn timed_setup<T>(outcome: &mut Outcome, build: impl FnOnce() -> Result<T>) -> Result<T> {
    let start = Instant::now();
    let built = build()?;
    outcome.setup_s.push(start.elapsed().as_secs_f64());
    Ok(built)
}

/// A small seeded generator (SplitMix64) for benchmark inputs.
#[derive(Debug, Clone, Default)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = affinity::allowed();
    if let Some(&cpu) = cpus.first() {
        if let Err(e) = affinity::pin_all(cpu) {
            eprintln!("perfbench: cannot pin to CPU {cpu}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let phases = Phase::of(&args, &cpus);
    let result = match args.workload.as_str() {
        "freon_grid" => grid::run(&args, &phases),
        "fleet_replay" => fleet::run(&args, &phases, false),
        "fleet_fanboost" => fleet::run(&args, &phases, true),
        "net_loop" => netloop::run(&args, &phases),
        other => Err(format!("unknown workload {other}").into()),
    };
    match result {
        Ok(outcome) => {
            report::print(
                &args.workload,
                args.seed,
                args.trace,
                &Host::detect(&cpus),
                outcome,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
