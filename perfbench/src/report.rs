//! What one run measured, the statistics over it, and the result line.

use crate::Rng;
use mercury::presets::validation_cluster;
use mercury::solver::{ClusterSolver, SolverConfig};
use std::collections::{BTreeMap, HashMap};
use telemetry::SpanRecord;

/// Every per-layer metric, with its unit. A traced run prints all of
/// them on every workload; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("cluster.tick_us", "us"),
    ("solver.step_us", "us"),
    ("policy.control_us", "us"),
    ("engine.residual_us", "us"),
    ("freon.decisions", "count"),
    ("freon.fan_commands", "count"),
    ("freon.power_state_changes", "count"),
    ("sim.offered", "count"),
    ("sim.dropped", "count"),
    ("sim.dropped_frac", "fraction"),
    ("trace.encode_s", "s"),
    ("trace.decode_ns_per_tick", "ns"),
    ("trace.frames_decoded", "count"),
    ("trace.spans", "count"),
    ("solver.build_s", "s"),
    ("solver.chunk_us_per_tick", "us"),
    ("solver.fiddle_us", "us"),
    ("solver.batched_frac", "fraction"),
    ("solver.solo_demotions", "count"),
    ("solver.flow_recomputes", "count"),
    ("solver.substeps", "count"),
    ("solver.simd_lane_width", "count"),
    ("net.read_p50_us", "us"),
    ("net.update_p50_us", "us"),
    ("net.ping_p50_us", "us"),
    ("net.read_p99_us", "us"),
    ("net.codec_ns", "ns"),
    ("net.scrape_ms", "ms"),
    ("net.admd_hop_p50_us", "us"),
    ("net.datagrams", "count"),
    ("net.timeouts", "count"),
    ("net.malformed", "count"),
    ("tracing.overhead_frac", "fraction"),
    ("tracing.spans_dropped", "count"),
];

/// Spans a traced phase may hold between drains. Every workload drains
/// after each op, far below this.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// The outcome of one workload run, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Units of work in one op (simulated machine-ticks, or messages).
    pub work_per_op: f64,
    /// What `work_per_op` counts.
    pub work_unit: &'static str,
    /// Host seconds of the timed ops with tracing detached.
    pub op_secs: Reservoir,
    /// Host seconds of the timed ops with the benchmark's tracer attached.
    pub traced_op_secs: Reservoir,
    /// Ops run, warm-up ops included.
    pub attempted: u64,
    /// Ops that errored, timed out or failed their output check.
    pub failed: u64,
    /// Per-layer values measured by this workload.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra diagnostic lines (sample counts, medians, tails).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one op's check; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {what}");
            }
        }
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// The op-time quantile throughput is computed from. Slow spells on a
/// shared host last seconds and slow a varying share of a run's ops; the
/// fast tail of the op times is what repeats from run to run.
pub const RATE_QUANTILE: f64 = 0.05;

/// Values kept for quantiles: a uniform sample of at most this many.
const RESERVOIR: usize = 1 << 16;

/// A uniform sample of a stream of values (reservoir sampling), so
/// memory stays flat however many ops a run makes.
#[derive(Debug, Default)]
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.values.len() < RESERVOIR {
            self.values.push(x);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < RESERVOIR {
                self.values[j] = x;
            }
        }
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile of the sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Durations and self times of finished spans, grouped by span name.
/// Self time is a span's duration minus the part of its interval that
/// its child spans cover.
#[derive(Debug, Default)]
pub struct SpanStats {
    dur_ns: HashMap<String, Vec<u64>>,
    self_ns: HashMap<String, Vec<u64>>,
}

impl SpanStats {
    /// Adds a batch of spans. A child must arrive in the same batch as
    /// its parent, so drain the tracer only between ops.
    pub fn absorb(&mut self, spans: &[SpanRecord]) {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
        for s in spans {
            let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let name = s.name.to_string();
            self.dur_ns.entry(name.clone()).or_default().push(s.dur_ns);
            self.self_ns
                .entry(name)
                .or_default()
                .push(s.dur_ns - covered.min(s.dur_ns));
        }
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.dur_ns.get(name).map_or(0, Vec::len)
    }

    /// Mean self time of `name`, µs (0 when none were recorded).
    pub fn self_mean_us(&self, name: &str) -> f64 {
        mean(self.self_ns.get(name)) / 1e3
    }

    /// Mean duration of `name`, µs (0 when none were recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        mean(self.dur_ns.get(name)) / 1e3
    }

    /// The `q`-quantile of the durations of `name`, µs (0 when none).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        match self.dur_ns.get(name) {
            Some(v) if !v.is_empty() => {
                let us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
                quantile(&us, q)
            }
            _ => 0.0,
        }
    }

    /// Summed duration of `name`, µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.dur_ns
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e3)
    }
}

fn mean(v: Option<&Vec<u64>>) -> f64 {
    match v {
        Some(v) if !v.is_empty() => v.iter().sum::<u64>() as f64 / v.len() as f64,
        _ => 0.0,
    }
}

/// Who measured: enough to attribute every number to a host and commit.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// CPUs the run took turns on.
    pub cpus: Vec<usize>,
    /// The SIMD backend a cluster solver selects on this host.
    pub simd: String,
    pub git: String,
}

impl Host {
    /// Reads the host from procfs and the environment the launcher set.
    pub fn detect(cpus: &[usize]) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |text: &str, key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Host {
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            cpu_model: field(&cpuinfo, "model name"),
            cpus: cpus.to_vec(),
            simd: ClusterSolver::new(&validation_cluster(1), SolverConfig::default())
                .map_or_else(|e| e.to_string(), |c| c.simd_backend().name().to_string()),
            git: std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".to_string()),
        }
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    mercury::trace::stream::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64)
}

fn describe(label: &str, ops: &Reservoir, work: f64, unit: &str) -> String {
    format!(
        "{label} ops: n={} p5={:.4} ms p25={:.4} ms p50={:.4} ms p90={:.4} ms ({work} {unit}/op)",
        ops.seen(),
        ops.quantile(RATE_QUANTILE) * 1e3,
        ops.quantile(0.25) * 1e3,
        ops.quantile(0.5) * 1e3,
        ops.quantile(0.9) * 1e3,
    )
}

/// Prints the diagnostics and, as the last line, the result object.
pub fn print(workload: &str, seed: u64, traced: bool, host: &Host, mut outcome: Outcome) {
    println!(
        "# host: nproc={} cpu=\"{}\" cpus={:?} (one at a time) simd={} git={} seed={seed} workload={workload} trace={}",
        host.nproc,
        host.cpu_model,
        host.cpus,
        host.simd,
        host.git,
        u8::from(traced)
    );
    println!(
        "# setup: n={} median={:.4} s",
        outcome.setup_s.len(),
        quantile(&outcome.setup_s, 0.5)
    );
    println!(
        "# {}",
        describe(
            "untraced",
            &outcome.op_secs,
            outcome.work_per_op,
            outcome.work_unit
        )
    );
    if traced {
        println!(
            "# {}",
            describe(
                "traced",
                &outcome.traced_op_secs,
                outcome.work_per_op,
                outcome.work_unit
            )
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }

    let rate = |ops: &Reservoir| outcome.work_per_op / ops.quantile(RATE_QUANTILE);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if traced {
        let overhead = 1.0 - rate(&outcome.traced_op_secs) / rate(&outcome.op_secs);
        outcome.layers.insert("tracing.overhead_frac", overhead);
        for &(name, unit) in PER_LAYER {
            metrics.push((name, outcome.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        metrics.push(("setup_s", quantile(&outcome.setup_s, 0.5), "s"));
        metrics.push(("work_per_s", rate(&outcome.op_secs), "1/s"));
        metrics.push(("peak_rss_mib", peak_rss_mib(), "MiB"));
    }

    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut body = Vec::new();
    for (name, value, unit) in metrics {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            0.0
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if traced && outcome.layers.get("tracing.spans_dropped").copied() != Some(0.0) {
        eprintln!("perfbench: the benchmark tracer dropped spans");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
}
