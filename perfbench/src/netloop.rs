//! `net_loop`: one client plays monitord, the sensor and tempd against a
//! UDP solver service (64 machines) and an admd (64 servers), in a
//! closed loop. One op is one round for one machine: a utilization
//! update, a temperature read, and a tempd message that admd applies.

use crate::report::{Outcome, Reservoir, SpanStats};
use crate::{timed_setup, Args, Phase, Result, Rng};
use cluster_sim::{ClusterSim, ServerConfig};
use freon::{AdmdService, PolicySpec, TempdMessage};
use mercury::net::proto::{self, Reply, Request};
use mercury::net::service::EmulatedSystem;
use mercury::net::{ServiceConfig, SolverService};
use parking_lot::Mutex;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Tracer;

const MACHINES: usize = 64;
/// Set-up repeats spread over each phase, after the initial set-up.
const SETUP_REPS: usize = 15;
/// A `Ping` follows every 8th round, a `Scrape` every 1000th.
const PING_EVERY: u64 = 8;
const SCRAPE_EVERY: u64 = 1000;
/// Rounds at the start of the traced phase whose received datagrams
/// are counted; the count is exact for a fixed schedule.
const COUNT_WINDOW: u64 = 2000;
const TIMEOUT: Duration = Duration::from_secs(1);
const CODEC_ITERS: u32 = 100_000;
/// Messages in one round (update, read, tempd message).
const MESSAGES_PER_ROUND: f64 = 3.0;

struct Setup {
    service: SolverService,
    admd: AdmdService,
    client: UdpSocket,
    tempd: UdpSocket,
}

fn build() -> Result<Setup> {
    let service = SolverService::spawn_cluster(
        &mercury::presets::validation_cluster(MACHINES),
        ServiceConfig::fast(),
    )?;
    service.with_system(|system| {
        if let EmulatedSystem::Cluster(cluster) = system {
            cluster.set_threads(1);
        }
    });
    let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
        MACHINES,
        ServerConfig::default(),
    )));
    let spec = PolicySpec::builtin("freon").ok_or("no built-in freon policy")?;
    let admd = AdmdService::spawn_spec(sim, &spec, 0.001)?;
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.connect(service.local_addr())?;
    client.set_read_timeout(Some(TIMEOUT))?;
    let tempd = UdpSocket::bind("127.0.0.1:0")?;
    tempd.connect(admd.local_addr())?;
    Ok(Setup {
        service,
        admd,
        client,
        tempd,
    })
}

/// Why a request failed.
enum Fail {
    Timeout,
    Other(String),
}

fn call(client: &UdpSocket, request: &Request, buf: &mut [u8]) -> std::result::Result<Reply, Fail> {
    client
        .send(&proto::encode_request(request))
        .map_err(|e| Fail::Other(e.to_string()))?;
    recv(client, buf)
}

fn recv(client: &UdpSocket, buf: &mut [u8]) -> std::result::Result<Reply, Fail> {
    match client.recv(buf) {
        Ok(n) => proto::decode_reply(&buf[..n]).map_err(|e| Fail::Other(e.to_string())),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(Fail::Timeout)
        }
        Err(e) => Err(Fail::Other(e.to_string())),
    }
}

/// Per-request round-trip samples of one phase, seconds.
#[derive(Default)]
struct Samples {
    update: Reservoir,
    read: Reservoir,
    hop: Reservoir,
    ping: Reservoir,
    scrape: Reservoir,
}

/// The client's state across rounds.
struct Client {
    rng: Rng,
    names: Vec<String>,
    buf: Vec<u8>,
    last_time: f64,
    timeouts: u64,
}

impl Client {
    /// Sends `request` and records its round trip; `Err` describes the
    /// failure.
    fn timed(
        &mut self,
        s: &Setup,
        request: &Request,
        samples: &mut Reservoir,
        tracer: &Tracer,
        name: &'static str,
        parent: u64,
    ) -> std::result::Result<Reply, String> {
        let t0 = Instant::now();
        let span = tracer.start_child(name, "net", parent);
        let reply = call(&s.client, request, &mut self.buf);
        tracer.end(span);
        samples.push(t0.elapsed().as_secs_f64());
        reply.map_err(|f| match f {
            Fail::Timeout => {
                self.timeouts += 1;
                format!("{name} timed out")
            }
            Fail::Other(e) => format!("{name}: {e}"),
        })
    }

    /// One round for machine `i`; returns an error if any reply is wrong.
    fn round(
        &mut self,
        s: &Setup,
        round: u64,
        samples: &mut Samples,
        tracer: &Tracer,
    ) -> std::result::Result<(), String> {
        let i = (round % MACHINES as u64) as usize;
        let machine = self.names[i].clone();
        let root = tracer.start("net.round", "bench");
        let update = Request::UtilizationUpdate {
            machine: machine.clone(),
            utilizations: vec![
                ("cpu".to_string(), self.rng.range(0.05, 0.95) as f32),
                (
                    "disk_platters".to_string(),
                    self.rng.range(0.05, 0.95) as f32,
                ),
            ],
        };
        let reply = self.timed(
            s,
            &update,
            &mut samples.update,
            tracer,
            "net.update",
            root.id(),
        )?;
        if reply != Reply::Ack {
            return Err(format!("update answered {reply:?}"));
        }
        let read = Request::ReadTemperature {
            machine,
            node: "cpu".to_string(),
        };
        match self.timed(s, &read, &mut samples.read, tracer, "net.read", root.id())? {
            Reply::Temperature { celsius, time }
                if celsius.is_finite() && time >= self.last_time =>
            {
                self.last_time = time;
            }
            other => return Err(format!("read answered {other:?}")),
        }
        let message = if (round / MACHINES as u64).is_multiple_of(2) {
            TempdMessage::Throttle {
                server: i,
                output: self.rng.range(0.1, 1.0),
            }
        } else {
            TempdMessage::Release { server: i }
        };
        let t0 = Instant::now();
        let span = tracer.start_child("net.admd_hop", "freon", root.id());
        let before = s.admd.messages_handled();
        s.tempd
            .send(&message.encode())
            .map_err(|e| format!("tempd send: {e}"))?;
        let handled = loop {
            let now = s.admd.messages_handled();
            if now != before || t0.elapsed() > TIMEOUT {
                break now;
            }
            std::thread::yield_now();
        };
        tracer.end(span);
        samples.hop.push(t0.elapsed().as_secs_f64());
        tracer.end(root);
        if handled == before {
            self.timeouts += 1;
            return Err("admd did not handle the message".to_string());
        }
        if handled != before + 1 {
            return Err(format!(
                "admd handled {} messages for one send",
                handled - before
            ));
        }
        Ok(())
    }

    fn ping(
        &mut self,
        s: &Setup,
        samples: &mut Samples,
        tracer: &Tracer,
    ) -> std::result::Result<(), String> {
        match self.timed(s, &Request::Ping, &mut samples.ping, tracer, "net.ping", 0)? {
            Reply::Pong => Ok(()),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    /// Scrapes the service registry until every part has arrived.
    fn scrape(
        &mut self,
        s: &Setup,
        samples: &mut Samples,
        tracer: &Tracer,
    ) -> std::result::Result<(), String> {
        let t0 = Instant::now();
        let span = tracer.start("net.scrape", "net");
        let mut text = String::new();
        let mut reply = call(&s.client, &Request::Scrape, &mut self.buf);
        let mut got = 0;
        let result = loop {
            match reply {
                Ok(Reply::Metrics {
                    parts, text: part, ..
                }) => {
                    text.push_str(&part);
                    got += 1;
                    if got == parts {
                        break Ok(());
                    }
                }
                Ok(other) => break Err(format!("scrape answered {other:?}")),
                Err(Fail::Timeout) => {
                    self.timeouts += 1;
                    break Err("scrape timed out".to_string());
                }
                Err(Fail::Other(e)) => break Err(format!("scrape: {e}")),
            }
            reply = recv(&s.client, &mut self.buf);
        };
        tracer.end(span);
        samples.scrape.push(t0.elapsed().as_secs_f64());
        result?;
        if text.contains("mercury_net_datagrams_total") {
            Ok(())
        } else {
            Err("scrape lacks the datagram counter".to_string())
        }
    }
}

/// A counter of the service's registry.
fn service_counter(s: &Setup, name: &str) -> u64 {
    s.service.registry().snapshot().counter(name).unwrap_or(0)
}

fn us(v: &Reservoir, q: f64) -> f64 {
    v.quantile(q) * 1e6
}

pub fn run(args: &Args, phases: &[Phase]) -> Result<Outcome> {
    let mut out = Outcome {
        work_per_op: MESSAGES_PER_ROUND,
        work_unit: "messages",
        ..Default::default()
    };
    let s = timed_setup(&mut out, build)?;
    let mut client = Client {
        rng: Rng::new(args.seed),
        names: (1..=MACHINES).map(|m| format!("machine{m}")).collect(),
        buf: vec![0; proto::MAX_DATAGRAM],
        last_time: f64::NEG_INFINITY,
        timeouts: 0,
    };
    let malformed_before = service_counter(&s, "mercury_net_malformed_total");
    let mut spans = SpanStats::default();
    let mut window = None;
    let mut untraced = Samples::default();
    for phase in phases {
        let tracer = &phase.tracer;
        let mut samples = Samples::default();
        let mut clock = phase.clock();
        let mut round = 0u64;
        let mut window_start = 0;
        while clock.running(&out) {
            if clock.setup_due(SETUP_REPS) {
                drop(timed_setup(&mut out, build)?);
            }
            if phase.traced() && round == 0 {
                window_start = service_counter(&s, "mercury_net_datagrams_total");
            }
            let t0 = Instant::now();
            let result = client.round(&s, round, &mut samples, tracer);
            let secs = t0.elapsed().as_secs_f64();
            if let Err(e) = &result {
                eprintln!("perfbench: round {round}: {e}");
            }
            out.check(result.is_ok(), "round replies");
            clock.record(&mut out, secs)?;
            if round % PING_EVERY == PING_EVERY - 1 {
                let result = client.ping(&s, &mut samples, tracer);
                out.check(result.is_ok(), "ping");
            }
            if round % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
                let result = client.scrape(&s, &mut samples, tracer);
                out.check(result.is_ok(), "scrape");
            }
            round += 1;
            if phase.traced() {
                if round == COUNT_WINDOW {
                    window =
                        Some(service_counter(&s, "mercury_net_datagrams_total") - window_start);
                }
                spans.absorb(&tracer.drain());
            }
        }
        if phase.traced() {
            for _ in 0..5 {
                let request = Request::ReadTemperature {
                    machine: "machine1".to_string(),
                    node: "cpu".to_string(),
                };
                let reply = proto::encode_reply(&Reply::Temperature {
                    celsius: 40.0,
                    time: 1.0,
                });
                let span = tracer.start("net.codec", "net");
                for _ in 0..CODEC_ITERS {
                    std::hint::black_box(proto::encode_request(std::hint::black_box(&request)));
                    let _ = std::hint::black_box(proto::decode_reply(std::hint::black_box(&reply)));
                }
                tracer.end(span);
            }
            spans.absorb(&tracer.drain());
            out.layer("tracing.spans_dropped", tracer.dropped() as f64);
        } else {
            untraced = samples;
        }
    }

    out.notes.push(format!(
        "untraced round trips: read n={} p50={:.2} us p90={:.2} us p99={:.2} us; update n={} p50={:.2} us p90={:.2} us; admd hop n={} p50={:.2} us; ping n={} p50={:.2} us; scrape n={} p50={:.3} ms",
        untraced.read.seen(),
        us(&untraced.read, 0.5),
        us(&untraced.read, 0.9),
        us(&untraced.read, 0.99),
        untraced.update.seen(),
        us(&untraced.update, 0.5),
        us(&untraced.update, 0.9),
        untraced.hop.seen(),
        us(&untraced.hop, 0.5),
        untraced.ping.seen(),
        us(&untraced.ping, 0.5),
        untraced.scrape.seen(),
        untraced.scrape.quantile(0.5) * 1e3,
    ));
    if phases.iter().any(Phase::traced) {
        let malformed = service_counter(&s, "mercury_net_malformed_total") - malformed_before;
        out.layer("net.read_p50_us", spans.quantile_us("net.read", 0.5));
        out.layer("net.update_p50_us", spans.quantile_us("net.update", 0.5));
        out.layer("net.ping_p50_us", spans.quantile_us("net.ping", 0.5));
        out.layer("net.read_p99_us", spans.quantile_us("net.read", 0.99));
        out.layer(
            "net.admd_hop_p50_us",
            spans.quantile_us("net.admd_hop", 0.5),
        );
        out.layer("net.scrape_ms", spans.mean_us("net.scrape") / 1e3);
        out.layer(
            "net.codec_ns",
            spans.mean_us("net.codec") * 1e3 / f64::from(CODEC_ITERS),
        );
        out.layer("net.datagrams", window.unwrap_or(0) as f64);
        out.layer("net.timeouts", client.timeouts as f64);
        out.layer("net.malformed", malformed as f64);
        out.notes.push(format!(
            "spans: net.read n={} net.update n={} net.admd_hop n={} net.ping n={} net.scrape n={}",
            spans.count("net.read"),
            spans.count("net.update"),
            spans.count("net.admd_hop"),
            spans.count("net.ping"),
            spans.count("net.scrape"),
        ));
    }
    s.admd.shutdown();
    s.service.shutdown();
    Ok(out)
}
