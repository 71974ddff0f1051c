//! The `serve_fleet` workload: a closed loop of two client connections
//! against a coordinator and one backend, each a `refrint-cli serve`
//! child process.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use refrint::json;
use refrint::prelude::*;
use refrint_engine::json as jsonv;

use crate::layers::{self, Source};
use crate::measure::{describe_ms, digest, median, peak_rss_mb, Outcome};
use crate::sim::emit_layers;
use crate::Args;

/// Per-thread length of every request's 4-core lu run.
const REFS: u64 = 2_000;
const CONNECTIONS: usize = 2;
/// Every `MISS_EVERY`-th request of a connection carries a fresh seed.
const MISS_EVERY: u64 = 4;
/// Every this-many-th miss body is compared with an in-process run.
const CHECK_EVERY: u64 = 8;

fn body(seed: u64) -> String {
    format!("{{\"app\":\"lu\",\"refs\":{REFS},\"cores\":4,\"seed\":{seed}}}")
}

fn builder(seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .edram_recommended()
        .cores(4)
        .seed(seed)
        .refs_per_thread(REFS)
}

/// One HTTP exchange, timed from connect to the response's last byte.
struct Response {
    status: u16,
    cache: Option<String>,
    job: Option<String>,
    body: String,
    connect_s: f64,
    total_s: f64,
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_s = start.elapsed().as_secs_f64();
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let total_s = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut cache = None;
    let mut job = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-refrint-cache" => cache = Some(value.trim().to_owned()),
                "x-refrint-job" => job = Some(value.trim().to_owned()),
                _ => {}
            }
        }
    }
    Ok(Response {
        status,
        cache,
        job,
        body: body.to_owned(),
        connect_s,
        total_s,
    })
}

/// A `refrint-cli serve` child, killed and reaped on drop if still alive.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the server and waits for the address line on its stderr
    /// (captured to `log`).
    fn spawn(cli: &Path, extra: &[String], log: &Path) -> Result<Server, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .env("REFRINT_LOG", "error")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("{}: {e}", cli.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The line may be read while it is still being written: only a
            // complete (newline-terminated) line carries the whole address.
            let addr = text
                .split_inclusive('\n')
                .filter(|line| line.ends_with('\n'))
                .find_map(|line| line.split("on http://").nth(1)?.split_whitespace().next());
            if let Some(addr) = addr {
                server.addr = addr.to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited with {status} before listening: {text}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server did not report its address within 30 s".into())
    }

    fn healthy(&self) -> bool {
        http(&self.addr, "GET", "/healthz", "").is_ok_and(|r| r.status == 200)
    }

    /// Graceful `POST /shutdown`, then waits (killing after 10 s).
    fn stop(mut self) {
        let _ = http(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A coordinator (with a fresh disk cache) in front of one backend.
struct Fleet {
    backend: Server,
    coordinator: Server,
}

impl Fleet {
    /// Starts the fleet; returns it with the seconds from the first spawn
    /// until the coordinator's `/healthz` answered 200.
    fn start(cli: &Path, dir: &Path) -> Result<(Fleet, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let backend = Server::spawn(cli, &[], &dir.join("backend.log"))?;
        let cache = dir.join("cache").display().to_string();
        let args = [
            "--coordinator".to_owned(),
            "--backend".to_owned(),
            backend.addr.clone(),
            "--cache-dir".to_owned(),
            cache,
        ];
        let coordinator = Server::spawn(cli, &args, &dir.join("coordinator.log"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !coordinator.healthy() {
            if Instant::now() > deadline {
                return Err("the coordinator never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let secs = start.elapsed().as_secs_f64();
        Ok((
            Fleet {
                backend,
                coordinator,
            },
            secs,
        ))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(peak_rss_mb(Some(self.backend.child.id()))?
            + peak_rss_mb(Some(self.coordinator.child.id()))?)
    }

    fn stop(self) {
        self.coordinator.stop();
        self.backend.stop();
    }
}

/// Coordinator stage durations of one request, from its job trace (ms).
#[derive(Debug, Default, Clone)]
struct Stages {
    parse: f64,
    cache_lookup: f64,
    queue_wait: f64,
    write: f64,
    dispatch: f64,
    backend_run: f64,
    handler: f64,
}

fn span_ms(span: &jsonv::Value) -> f64 {
    let at = |k: &str| {
        span.get(k)
            .and_then(|v| {
                v.as_str()
                    .and_then(|s| s.parse::<f64>().ok())
                    .or_else(|| v.as_num())
            })
            .unwrap_or(0.0)
    };
    (at("endTimeUnixNano") - at("startTimeUnixNano")) / 1e6
}

fn parse_stages(doc: &str) -> Option<Stages> {
    let doc = jsonv::parse(doc).ok()?;
    let resources = doc.get("resourceSpans")?.as_arr()?;
    let spans = |i: usize| -> Vec<&jsonv::Value> {
        resources
            .get(i)
            .and_then(|r| r.get("scopeSpans"))
            .and_then(jsonv::Value::as_arr)
            .into_iter()
            .flatten()
            .filter_map(|s| s.get("spans").and_then(jsonv::Value::as_arr))
            .flatten()
            .collect()
    };
    let mut st = Stages::default();
    for span in spans(0) {
        let ms = span_ms(span);
        match span.get("name")?.as_str()? {
            "request" => st.handler = ms,
            "stage/parse" | "stage/read_body" | "stage/validate" => st.parse += ms,
            "stage/cache_lookup" => st.cache_lookup += ms,
            "stage/queue_wait" => st.queue_wait += ms,
            "stage/write" => st.write += ms,
            name if name.starts_with("backend/") => st.dispatch += ms,
            _ => {}
        }
    }
    for span in spans(1) {
        if span.get("name")?.as_str()? == "request" {
            st.backend_run += span_ms(span);
        }
    }
    Some(st)
}

/// One completed request.
struct Sample {
    ok: bool,
    hit: bool,
    latency: f64,
    connect: f64,
    stages: Option<Stages>,
}

/// Shared state of one closed-loop phase.
struct Load<'a> {
    addr: &'a str,
    seed: u64,
    hit_body: &'a str,
    hit_digest: u64,
    next_miss: &'a AtomicU64,
    traced: bool,
}

/// Miss bodies kept for the in-process comparison: (seed, body).
type Kept = Vec<(u64, String)>;

impl Load<'_> {
    /// One connection's closed loop until `deadline`.
    fn connection(&self, deadline: Instant) -> (Vec<Sample>, Kept) {
        let mut samples = Vec::new();
        let mut kept = Vec::new();
        let mut i = 0u64;
        while Instant::now() < deadline {
            i += 1;
            let miss_seed = i.is_multiple_of(MISS_EVERY).then(|| {
                let k = self.next_miss.fetch_add(1, Ordering::Relaxed);
                (k, self.seed.wrapping_mul(1_000_003).wrapping_add(k + 1))
            });
            let request = miss_seed.map_or_else(|| self.hit_body.to_owned(), |(_, s)| body(s));
            let Ok(r) = http(self.addr, "POST", "/run", &request) else {
                samples.push(Sample {
                    ok: false,
                    hit: false,
                    latency: 0.0,
                    connect: 0.0,
                    stages: None,
                });
                continue;
            };
            let hit = r.cache.as_deref() == Some("hit");
            // The repeated body must hit the cache and a fresh seed miss it.
            let mut ok = r.status == 200 && hit == miss_seed.is_none();
            match miss_seed {
                None => ok &= digest(r.body.as_bytes()) == self.hit_digest,
                Some((k, s)) if k % CHECK_EVERY == 0 => kept.push((s, r.body.clone())),
                Some(_) => {}
            }
            let stages = match (&r.job, self.traced) {
                (Some(job), true) => fetch_trace(self.addr, job),
                _ => None,
            };
            samples.push(Sample {
                ok,
                hit,
                latency: r.total_s,
                connect: r.connect_s,
                stages,
            });
        }
        (samples, kept)
    }

    fn run(&self, seconds: f64) -> (Vec<Sample>, Kept, f64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let (mut samples, mut kept) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| s.spawn(|| self.connection(deadline)))
                .collect();
            for h in handles {
                let (a, b) = h.join().expect("load thread panicked");
                samples.extend(a);
                kept.extend(b);
            }
        });
        (samples, kept, start.elapsed().as_secs_f64())
    }
}

fn fetch_trace(addr: &str, job: &str) -> Option<Stages> {
    // The trace is published once the response's last byte is written,
    // which can trail the client's read by a moment (202 until then).
    for _ in 0..200 {
        let r = http(addr, "GET", &format!("/jobs/{job}/trace"), "").ok()?;
        if r.status == 200 {
            return parse_stages(&r.body);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Sum of `refrint_backend_dispatched_total` over backends.
fn dispatched(addr: &str) -> Result<f64, String> {
    let r = http(addr, "GET", "/metrics", "").map_err(|e| e.to_string())?;
    Ok(r.body
        .lines()
        .filter(|l| l.starts_with("refrint_backend_dispatched_total"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum())
}

/// The report bytes an in-process run produces for a request's seed.
fn in_process(seed: u64) -> Result<String, String> {
    let mut sim = builder(seed).build().map_err(|e| e.to_string())?;
    Ok(json::report(&sim.run(AppPreset::Lu).report))
}

/// Load segments per run, each against a fresh fleet. The coordinator's
/// and the backend's 15 ms accept polls drift in phase only slowly, and a
/// miss's latency depends on that phase: one long segment samples one
/// phase, several fresh fleets sample several.
const SEGMENTS: usize = 8;

/// What some segments of closed-loop load produced.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    kept: Kept,
    elapsed: f64,
    dispatched: f64,
    setup: Vec<f64>,
    rss: Vec<f64>,
}

impl Phase {
    /// `segments` fresh fleets, `seconds` of load in total.
    fn run(
        args: &Args,
        scratch: &Path,
        out: &mut Outcome,
        traced: bool,
        segments: usize,
        seconds: f64,
    ) -> Result<Phase, String> {
        let cli = args
            .cli
            .as_deref()
            .ok_or("--cli <refrint-cli binary> is required for serve_fleet")?;
        let next_miss = AtomicU64::new(0);
        let hit_body = body(args.seed);
        let expected = in_process(args.seed)?;
        let mut phase = Phase::default();
        for i in 0..segments {
            let dir = scratch.join(format!("fleet-{}{i}", if traced { "traced-" } else { "" }));
            let (fleet, secs) = Fleet::start(cli, &dir)?;
            phase.setup.push(secs);
            let addr = fleet.coordinator.addr.as_str();
            // The first request of the repeated body fills the cache; it
            // must already carry the bytes an in-process run produces.
            let first = http(addr, "POST", "/run", &hit_body).map_err(|e| e.to_string())?;
            out.check(
                first.status == 200 && first.body.trim_end() == expected.trim_end(),
                "serve_fleet: the repeated request's body differs from the in-process report",
            );
            let load = Load {
                addr,
                seed: args.seed,
                hit_body: &hit_body,
                hit_digest: digest(first.body.as_bytes()),
                next_miss: &next_miss,
                traced,
            };
            let before = dispatched(addr)?;
            let (samples, kept, elapsed) = load.run(seconds / segments as f64);
            phase.dispatched += dispatched(addr)? - before;
            phase.rss.push(fleet.peak_rss_mb()?);
            fleet.stop();
            phase.samples.extend(samples);
            phase.kept.extend(kept);
            phase.elapsed += elapsed;
        }
        for s in &phase.samples {
            out.check(
                s.ok,
                "serve_fleet: transport error, non-200 status or wrong body",
            );
        }
        Ok(phase)
    }

    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    fn rate(&self) -> f64 {
        self.ok().count() as f64 / self.elapsed
    }
}

pub fn serve_fleet(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (segments, seconds) = if args.trace {
        (SEGMENTS / 2, args.seconds / 2.0)
    } else {
        (SEGMENTS, args.seconds)
    };
    let phase = Phase::run(args, scratch, &mut out, false, segments, seconds)?;
    for (seed, body) in &phase.kept {
        let expected = in_process(*seed)?;
        out.check(
            body.trim_end() == expected.trim_end(),
            &format!("serve_fleet: miss body for seed {seed} differs from the in-process report"),
        );
    }
    let lat = |hit: bool| -> Vec<f64> {
        phase
            .ok()
            .filter(|s| s.hit == hit)
            .map(|s| s.latency)
            .collect()
    };
    let (hits, misses) = (lat(true), lat(false));
    let all: Vec<f64> = phase.ok().map(|s| s.latency).collect();
    if hits.is_empty() || misses.is_empty() {
        return Err("serve_fleet: the run completed no hits or no misses".into());
    }
    eprintln!(
        "serve_fleet (seed {}, {CONNECTIONS} closed-loop connections, 1 of {MISS_EVERY} requests a miss, \
         {segments} fresh fleets, {:.1} s of load):",
        args.seed, phase.elapsed
    );
    eprintln!("  latency.hit{:<25} {}", "", describe_ms(&hits));
    eprintln!("  latency.miss{:<24} {}", "", describe_ms(&misses));
    eprintln!(
        "  serve.cache_hit_ratio{:<15} {:>16.4} ratio  {} hits / {} requests",
        "",
        hits.len() as f64 / all.len() as f64,
        hits.len(),
        all.len()
    );
    eprintln!(
        "  serve.dispatch_attempts_per_miss{:<4} {:>16.4} ratio  {} dispatches / {} misses",
        "",
        phase.dispatched / misses.len() as f64,
        phase.dispatched,
        misses.len()
    );
    if !args.trace {
        out.metric(
            "setup_s",
            median(&phase.setup),
            "s",
            &format!("median of {} fleet start-ups", phase.setup.len()),
        );
        out.metric(
            "throughput",
            phase.rate(),
            "1/s",
            &format!("requests per s, {} completed", all.len()),
        );
        out.metric(
            "latency_p50_ms",
            median(&all) * 1e3,
            "ms",
            &format!("connect to last byte, {}", describe_ms(&all)),
        );
        out.metric(
            "peak_rss_mb",
            median(&phase.rss),
            "MB",
            &format!(
                "coordinator + backend, median of {} fleets",
                phase.rss.len()
            ),
        );
        return Ok(out);
    }

    // Traced phase: the same loop, fetching each request's span tree.
    let traced = Phase::run(args, scratch, &mut out, true, segments, seconds)?;
    let overhead = phase.rate() / traced.rate();
    let traced = traced.samples;
    eprintln!("serve stages (traced phase, {} requests):", traced.len());
    let connect: Vec<f64> = traced.iter().filter(|s| s.ok).map(|s| s.connect).collect();
    eprintln!(
        "  serve.connect_ms{:<20} {:>16.4} ms     median of {}",
        "",
        median(&connect) * 1e3,
        connect.len()
    );
    for hit in [true, false] {
        let staged: Vec<(&Sample, &Stages)> = traced
            .iter()
            .filter(|s| s.ok && s.hit == hit)
            .filter_map(|s| Some((s, s.stages.as_ref()?)))
            .collect();
        if staged.is_empty() {
            continue;
        }
        let kind = if hit { "hit" } else { "miss" };
        let mut rows: Vec<(&str, Vec<f64>)> = vec![
            ("parse_ms", staged.iter().map(|s| s.1.parse).collect()),
            (
                "cache_lookup_ms",
                staged.iter().map(|s| s.1.cache_lookup).collect(),
            ),
            (
                "queue_wait_ms",
                staged.iter().map(|s| s.1.queue_wait).collect(),
            ),
            ("write_ms", staged.iter().map(|s| s.1.write).collect()),
            (
                "outside_handler_ms",
                staged
                    .iter()
                    .map(|s| s.0.latency * 1e3 - s.1.handler)
                    .collect(),
            ),
        ];
        if !hit {
            rows.push(("dispatch_ms", staged.iter().map(|s| s.1.dispatch).collect()));
            rows.push((
                "backend_run_ms",
                staged.iter().map(|s| s.1.backend_run).collect(),
            ));
        }
        for (name, values) in rows {
            eprintln!(
                "  serve.{name}.{kind:<width$} {:>16.4} ms     median of {}",
                median(&values),
                values.len(),
                width = 29 - name.len()
            );
        }
    }

    // The simulator layers behind a miss, replayed on one miss's config.
    let b = builder(args.seed.wrapping_mul(1_000_003).wrapping_add(1));
    let report = b
        .build()
        .map_err(|e| e.to_string())?
        .run(AppPreset::Lu)
        .report;
    let costs = layers::trace_layers(&b, AppPreset::Lu, Source::Generated, &report, scratch, 5)?;
    out.check(
        costs.identical,
        "serve_fleet: a traced or run_streams run differs from Simulation::run",
    );
    let planted = layers::planted_selftest(&b, AppPreset::Lu, crate::sim::PLANTED_NS, 3)?;
    out.check(
        planted.report_identical,
        "lu: the planted run's report differs from the plain run's",
    );
    let costs = [costs];
    let sum_error_pct = layers::layer_sum_error_pct(&costs, false);
    emit_layers(
        &mut out,
        &costs,
        crate::sim::horizon_periods(&report),
        overhead,
        &planted,
        sum_error_pct,
    )?;
    Ok(out)
}
