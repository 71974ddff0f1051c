//! Per-layer host costs, timed from outside the program.
//!
//! Nothing here instruments the simulator. Each layer's public entry point
//! is called in a batch on inputs derived from the run being measured:
//!
//! * the workload streams are generated (`ThreadStream`) or decoded
//!   (`TraceFile::thread`) and materialised;
//! * the references are interleaved by a simple per-core clock, then pushed
//!   through per-tile DL1/L2 caches and the L3 banks once, untimed, to
//!   record what each level is fed: the DL1 gets every reference, the L2
//!   the DL1 misses, the L3 banks and the directory the L2 misses, DRAM
//!   the L3 misses, and decay settlement every hit's (kind, last touch,
//!   now);
//! * each level's calls are then replayed on fresh state and timed as one
//!   batch, minus the same loop with the call replaced by `black_box`.
//!
//! Geometry, replacement, policy, retention and protocol come from the
//! run's own `SystemConfig`. The per-operation costs are multiplied by the
//! exact operation counts of the run's `SimReport`; whatever the whole run
//! costs beyond that sum is reported as unattributed, not hidden.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use refrint::config::SystemConfig;
use refrint::hierarchy::line_kind;
use refrint::json;
use refrint::report::SimReport;
use refrint::simulation::SimulationBuilder;
use refrint_coherence::directory::Directory;
use refrint_coherence::protocol::{CoherenceEngine, CoreRequest};
use refrint_edram::schedule::{DecaySchedule, LineKind};
use refrint_energy::breakdown::EnergyBreakdown;
use refrint_engine::time::Cycle;
use refrint_mem::addr::LineAddr;
use refrint_mem::cache::Cache;
use refrint_mem::config::CacheLevelConfig;
use refrint_mem::dram::{DramModel, DramOp};
use refrint_mem::line::MesiState;
use refrint_trace::TraceFile;
use refrint_workloads::apps::AppPreset;
use refrint_workloads::{MemRef, ThreadStream};

use crate::measure::{median, spin, spin_ns_per_iter, timed};

/// Per-thread reference vectors.
pub type Streams = Vec<Vec<MemRef>>;

/// One layer: its measured cost per call and the number of calls the run
/// made, from the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub ns_per_op: f64,
    pub ops: u64,
}

/// Everything the traced run learns about one simulation.
#[derive(Debug, Clone)]
pub struct LayerCosts {
    /// Data references of the run (the report's DL1 accesses).
    pub refs: u64,
    pub gen_ns_per_ref: f64,
    pub build_ms: f64,
    /// `run_streams` over pre-materialised vectors.
    pub run_ns_per_ref: f64,
    /// Seconds of the public entry point (`Simulation::run` or `replay`)
    /// and of the materialised run, in adjacent pairs.
    pub live_s: Vec<f64>,
    pub run_s: Vec<f64>,
    /// Whether every one of those runs reproduced the untraced report.
    pub identical: bool,
    pub trace_open_ms: f64,
    pub trace_decode_ns_per_ref: f64,
    pub dl1: Layer,
    pub l2: Layer,
    pub l3: Layer,
    pub dram: Layer,
    pub settle: Layer,
    pub coherence: Layer,
    pub breakdown_us: f64,
    pub report_json_us: f64,
    /// The report of the materialised run.
    pub report: SimReport,
}

impl LayerCosts {
    /// The timed layers, by name.
    pub fn layers(&self) -> [(&'static str, Layer); 6] {
        [
            ("mem.dl1_ns", self.dl1),
            ("mem.l2_ns", self.l2),
            ("mem.l3_ns", self.l3),
            ("mem.dram_ns", self.dram),
            ("edram.settle_ns", self.settle),
            ("coherence.access_ns", self.coherence),
        ]
    }

    /// Σ(layer ns/op × op count) ÷ refs.
    pub fn attributed_ns_per_ref(&self) -> f64 {
        let total: f64 = self
            .layers()
            .iter()
            .map(|(_, l)| l.ns_per_op * l.ops as f64)
            .sum();
        total / self.refs as f64
    }

    /// `run_ns_per_ref` minus what the timed layers account for.
    pub fn unattributed_ns_per_ref(&self) -> f64 {
        self.run_ns_per_ref - self.attributed_ns_per_ref()
    }
}

/// (layer rows + unattributed − measured run) ÷ measured run, in percent,
/// pooled over `costs`. The rows are the stream source (generation, or
/// decode for a replay) plus the materialised run, which is the timed
/// layers plus the unattributed remainder; the measured run is the public
/// entry point. Each pair is compared on its own, then the median taken.
pub fn layer_sum_error_pct(costs: &[LayerCosts], replay: bool) -> f64 {
    let pairs = costs.iter().map(|c| c.run_s.len()).min().unwrap_or(0);
    let errors: Vec<f64> = (0..pairs)
        .map(|k| {
            let (rows, measured) = costs.iter().fold((0.0, 0.0), |(rows, measured), c| {
                let source = if replay {
                    c.trace_decode_ns_per_ref
                } else {
                    c.gen_ns_per_ref
                };
                (
                    rows + source * c.refs as f64 * 1e-9 + c.run_s[k],
                    measured + c.live_s[k],
                )
            });
            rows / measured - 1.0
        })
        .collect();
    median(&errors) * 100.0
}

/// Where a run's reference streams come from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// Synthetic generation under the run's own configuration.
    Generated,
    /// A captured trace file (the run replays it).
    Trace(&'a Path),
}

/// Drains the streams round-robin, one reference from each in turn, the
/// way `run_streams` interleaves cores (so each generator's state is as cold
/// as in a run); returns the number of references.
fn drain_interleaved<I: Iterator<Item = MemRef>>(mut streams: Vec<I>) -> u64 {
    let mut n = 0;
    while !streams.is_empty() {
        streams.retain_mut(|s| match s.next() {
            Some(r) => {
                black_box(r);
                n += 1;
                true
            }
            None => false,
        });
    }
    n
}

/// Drains `app`'s synthetic streams under `cfg` (without keeping them) and
/// returns (ns per reference, references).
pub fn time_generation(cfg: &SystemConfig, app: AppPreset, reps: usize) -> (f64, u64) {
    let model = cfg.adjusted_model(&app.model());
    let mut refs = 0;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (n, secs) = timed(|| {
                drain_interleaved(
                    (0..model.threads)
                        .map(|t| ThreadStream::new(&model, t, cfg.seed))
                        .collect(),
                )
            });
            refs = n;
            secs * 1e9 / n as f64
        })
        .collect();
    (median(&samples), refs)
}

/// Materialises `app`'s synthetic streams under `cfg`.
pub fn generate(cfg: &SystemConfig, app: AppPreset) -> Streams {
    let model = cfg.adjusted_model(&app.model());
    (0..model.threads)
        .map(|t| ThreadStream::new(&model, t, cfg.seed).collect())
        .collect()
}

/// Opens `path` and decodes every thread, timing both; returns
/// (open ms, decode ns per reference, streams).
pub fn time_trace(path: &Path, reps: usize) -> Result<(f64, f64, Streams), String> {
    let mut open_ms = Vec::new();
    let mut decode_ns = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..reps {
        let (trace, secs) = timed(|| TraceFile::open(path));
        let trace = trace.map_err(|e| format!("{}: {e}", path.display()))?;
        open_ms.push(secs * 1e3);
        let (decoded, secs) = timed(|| -> Result<Streams, String> {
            (0..trace.meta().threads)
                .map(|t| {
                    trace
                        .thread(t)
                        .map_err(|e| e.to_string())?
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect()
                })
                .collect()
        });
        streams = decoded?;
        let n: usize = streams.iter().map(Vec::len).sum();
        decode_ns.push(secs * 1e9 / n as f64);
    }
    Ok((median(&open_ms), median(&decode_ns), streams))
}

/// Measures every layer of one simulation. `live` is the report of the
/// untraced run through the public entry point; every timed run must
/// reproduce it byte for byte (the caller checks
/// [`LayerCosts::identical`]).
pub fn trace_layers(
    builder: &SimulationBuilder,
    app: AppPreset,
    source: Source<'_>,
    live: &SimReport,
    scratch: &Path,
    reps: usize,
) -> Result<LayerCosts, String> {
    let build = || builder.build().map_err(|e| e.to_string());
    let mut build_ms = Vec::new();
    let mut sim = None;
    for _ in 0..reps {
        let (s, secs) = timed(build);
        build_ms.push(secs * 1e3);
        sim = Some(s?);
    }
    let sim = sim.expect("at least one build");
    let cfg = sim.config().clone();

    let (gen_ns_per_ref, trace_path, capture) = match source {
        Source::Generated => {
            let (ns, _) = time_generation(&cfg, app, reps);
            // The trace layer is not on this run's path; time it on a
            // capture of the run's own streams.
            let path = scratch.join(format!("{}.trace", app.name()));
            sim.capture(app, &path).map_err(|e| e.to_string())?;
            (ns, path, true)
        }
        Source::Trace(path) => {
            // The streams were generated once, at capture; time that
            // generation under the capture's configuration (the trace's
            // seed and per-thread length, the run's core count).
            let trace = TraceFile::open(path).map_err(|e| e.to_string())?;
            let per_thread = trace.thread(0).map_err(|e| e.to_string())?.count() as u64;
            let gen_cfg = cfg
                .clone()
                .with_seed(trace.meta().seed)
                .with_scale(per_thread);
            (
                time_generation(&gen_cfg, app, reps).0,
                path.to_path_buf(),
                false,
            )
        }
    };
    let (trace_open_ms, trace_decode_ns_per_ref, decoded) = time_trace(&trace_path, reps)?;
    if capture {
        let _ = std::fs::remove_file(&trace_path);
    }
    let streams = match source {
        Source::Generated => generate(&cfg, app),
        Source::Trace(_) => decoded,
    };

    // Adjacent (live, materialised) pairs in alternating order, so slow
    // drift in the host's speed cancels within each pair.
    let live_json = json::report(live);
    let (mut live_s, mut run_s) = (Vec::new(), Vec::new());
    let mut identical = true;
    let mut report = None;
    for k in 0..reps {
        for materialised in [k % 2 == 1, k % 2 == 0] {
            let mut fresh = build()?;
            let (r, secs) = if materialised {
                let iters: Vec<_> = streams.iter().map(|s| s.iter().copied()).collect();
                timed(|| fresh.system_mut().run_streams(&live.workload, iters))
            } else {
                timed(|| match source {
                    Source::Generated => Ok(fresh.run(app).report),
                    Source::Trace(_) => fresh.replay().map(|o| o.report),
                })
            };
            let r = r.map_err(|e| e.to_string())?;
            identical &= json::report(&r) == live_json;
            if materialised {
                run_s.push(secs);
                report = Some(r);
            } else {
                live_s.push(secs);
            }
        }
    }
    let report = report.expect("at least one run");
    drop(sim);

    let counts = report.counts;
    let stat_sum = |prefix: &str| -> u64 {
        report
            .stats
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(".hits"))
            .map(|(_, v)| v)
            .sum()
    };
    // Settlement runs on every DL1 and L2 hit and on every L3 transaction
    // that finds its line resident (the ones that did not go to DRAM).
    let settles = stat_sum("dl1.") + stat_sum("l2.") + counts.l3_accesses - counts.dram_reads;

    let ops = record_ops(&cfg, &streams);
    let layer = |ns_per_op: f64, ops: u64| Layer { ns_per_op, ops };
    let costs = LayerCosts {
        refs: counts.dl1_accesses,
        gen_ns_per_ref,
        build_ms: median(&build_ms),
        run_ns_per_ref: median(&run_s) * 1e9 / counts.dl1_accesses as f64,
        live_s,
        run_s,
        identical,
        trace_open_ms,
        trace_decode_ns_per_ref,
        dl1: layer(
            time_cache(&cfg.dl1, cfg.cores, &ops.dl1, cfg.seed, reps),
            counts.dl1_accesses,
        ),
        l2: layer(
            time_cache(&cfg.l2, cfg.cores, &ops.l2, cfg.seed, reps),
            counts.l2_accesses,
        ),
        l3: layer(
            time_cache(&cfg.l3_bank, cfg.l3_banks, &ops.l3, cfg.seed, reps),
            counts.l3_accesses,
        ),
        dram: layer(
            time_dram(&ops.dram, reps),
            counts.dram_reads + counts.dram_writes,
        ),
        settle: layer(time_settle(&cfg, &ops.settle, reps), settles),
        coherence: layer(
            time_coherence(&cfg, &ops.coherence, reps),
            counts.l3_accesses,
        ),
        breakdown_us: per_call_us(2_000, reps, || {
            black_box(EnergyBreakdown::compute_for_chip(
                &cfg.tech,
                cfg.cells,
                black_box(&report.counts),
                cfg.cores,
                cfg.l3_banks,
            ));
        }),
        report_json_us: per_call_us(200, reps, || {
            black_box(json::report(black_box(&report)));
        }),
        report: report.clone(),
    };
    Ok(costs)
}

/// Microseconds per call of `f`, timed over batches of `batch` calls.
pub fn per_call_us(batch: u32, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), secs) = timed(|| (0..batch).for_each(|_| f()));
            secs * 1e6 / f64::from(batch)
        })
        .collect();
    median(&samples)
}

/// One reference on the replay timeline.
#[derive(Debug, Clone, Copy)]
struct Access {
    unit: u32,
    line: u64,
    now: u64,
}

/// The calls each layer receives during one pass over the run's streams.
#[derive(Debug, Default)]
struct Ops {
    dl1: Vec<Access>,
    l2: Vec<Access>,
    /// `unit` is the home bank.
    l3: Vec<Access>,
    dram: Vec<Access>,
    /// (level 0/1/2, kind, last touch, now).
    settle: Vec<(u8, LineKind, u64, u64)>,
    /// (tile, line, is_write).
    coherence: Vec<(u32, u64, bool)>,
}

fn new_caches(level: &CacheLevelConfig, n: usize, seed: u64) -> Vec<Cache> {
    (0..n)
        .map(|i| {
            Cache::with_replacement("replay", level.geometry, level.replacement, seed ^ i as u64)
        })
        .collect()
}

/// Interleaves the streams by a per-core clock (gap + one cycle per
/// reference) and records what each level is fed.
fn record_ops(cfg: &SystemConfig, streams: &Streams) -> Ops {
    let shift = cfg.dl1.geometry.line_size().trailing_zeros();
    let mut dl1 = new_caches(&cfg.dl1, cfg.cores, cfg.seed);
    let mut l2 = new_caches(&cfg.l2, cfg.cores, cfg.seed);
    let mut l3 = new_caches(&cfg.l3_bank, cfg.l3_banks, cfg.seed);
    let mut pos = vec![0usize; streams.len()];
    let mut clock = vec![0u64; streams.len()];
    let mut ops = Ops::default();
    while let Some(t) = (0..streams.len())
        .filter(|&t| pos[t] < streams[t].len())
        .min_by_key(|&t| clock[t])
    {
        let r = streams[t][pos[t]];
        pos[t] += 1;
        clock[t] += r.gap_cycles + 1;
        let now = clock[t];
        let line = LineAddr::new(r.addr.raw() >> shift);
        let at = |unit: usize| Access {
            unit: unit as u32,
            line: line.raw(),
            now,
        };
        let cycle = Cycle::new(now);
        ops.dl1.push(at(t));
        if let Some((prev, _)) = dl1[t].lookup_prev(line, cycle) {
            ops.settle
                .push((0, line_kind(&prev), prev.meta.last_touch.raw(), now));
            continue;
        }
        dl1[t].fill(line, MesiState::Shared, cycle);
        ops.l2.push(at(t));
        if let Some((prev, _)) = l2[t].lookup_prev(line, cycle) {
            ops.settle
                .push((1, line_kind(&prev), prev.meta.last_touch.raw(), now));
            continue;
        }
        let state = if r.is_write() {
            MesiState::Modified
        } else {
            MesiState::Exclusive
        };
        l2[t].fill(line, state, cycle);
        ops.coherence.push((t as u32, line.raw(), r.is_write()));
        let bank = line.bank(cfg.l3_banks);
        ops.l3.push(at(bank));
        if let Some((prev, _)) = l3[bank].lookup_prev(line, cycle) {
            ops.settle
                .push((2, line_kind(&prev), prev.meta.last_touch.raw(), now));
            continue;
        }
        l3[bank].fill(line, MesiState::Shared, cycle);
        ops.dram.push(at(bank));
    }
    ops
}

/// Median over `reps` of (timed batch − same loop around `black_box`) per
/// op, each rep on state from `setup`.
fn time_batch<S, T: Copy>(
    ops: &[T],
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, T),
) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            for &op in ops {
                call(&mut state, op);
            }
            let full = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for &op in ops {
                black_box(op);
            }
            let empty = start.elapsed().as_secs_f64();
            (full - empty) * 1e9 / ops.len() as f64
        })
        .collect();
    median(&samples)
}

/// `Cache::lookup_prev`, plus `Cache::fill` on a miss.
fn time_cache(level: &CacheLevelConfig, n: usize, ops: &[Access], seed: u64, reps: usize) -> f64 {
    time_batch(
        ops,
        reps,
        || new_caches(level, n, seed),
        |caches, a| {
            let cache = &mut caches[a.unit as usize];
            let (line, now) = (LineAddr::new(a.line), Cycle::new(a.now));
            if black_box(cache.lookup_prev(line, now)).is_none() {
                black_box(cache.fill(line, MesiState::Shared, now));
            }
        },
    )
}

/// `DramModel::access` on the L3-miss stream.
fn time_dram(ops: &[Access], reps: usize) -> f64 {
    time_batch(ops, reps, DramModel::paper_default, |dram, a| {
        black_box(dram.access(a.line, DramOp::Read, Cycle::new(a.now)));
    })
}

/// `DecaySchedule::settle` with each level's policy and retention.
fn time_settle(cfg: &SystemConfig, ops: &[(u8, LineKind, u64, u64)], reps: usize) -> f64 {
    let retention = cfg.retention.line_retention_cycles();
    let schedule = |level: &CacheLevelConfig, policy| {
        let margin = level
            .geometry
            .num_lines()
            .min(retention.raw().saturating_sub(1));
        DecaySchedule::new(policy, retention, Cycle::new(margin), Cycle::ZERO)
    };
    let private = cfg.private_cache_policy();
    let schedules = [
        schedule(&cfg.dl1, private),
        schedule(&cfg.l2, private),
        schedule(&cfg.l3_bank, cfg.policy),
    ];
    time_batch(
        ops,
        reps,
        || (),
        |(), (level, kind, touch, now)| {
            black_box(schedules[usize::from(level)].settle(
                kind,
                Cycle::new(touch),
                Cycle::new(now),
            ));
        },
    )
}

/// `CoherenceEngine::access` on the L2-miss stream with the issuing tile.
fn time_coherence(cfg: &SystemConfig, ops: &[(u32, u64, bool)], reps: usize) -> f64 {
    time_batch(
        ops,
        reps,
        || {
            (
                Directory::new(cfg.cores),
                CoherenceEngine::new(cfg.protocol, cfg.cores),
            )
        },
        |(dir, engine), (tile, line, write)| {
            let request = if write {
                CoreRequest::Write
            } else {
                CoreRequest::Read
            };
            black_box(engine.access(dir, LineAddr::new(line), tile as usize, request));
        },
    )
}

/// A stream wrapper that spins a fixed number of iterations per reference:
/// the planted cost of the self-test.
struct Planted<I> {
    inner: I,
    iters: u64,
}

impl<I: Iterator<Item = MemRef>> Iterator for Planted<I> {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let r = self.inner.next()?;
        spin(self.iters);
        Some(r)
    }
}

/// Result of the planted-cost self-test.
#[derive(Debug, Clone, Copy)]
pub struct PlantedResult {
    /// The cost planted per reference (ns, calibrated).
    pub planted_ns: f64,
    /// How much `workloads.gen_ns_per_ref` rose.
    pub gen_rise_ns: f64,
    /// How much `core.unattributed_ns_per_ref` moved.
    pub unattributed_shift_ns: f64,
    /// Whether the planted run's report equals the plain run's.
    pub report_identical: bool,
}

impl PlantedResult {
    /// The generation layer absorbs the planted cost within a quarter of
    /// it, and the unattributed remainder moves by less than a quarter.
    pub fn within_tolerance(&self) -> bool {
        (self.gen_rise_ns - self.planted_ns).abs() <= 0.25 * self.planted_ns
            && self.unattributed_shift_ns.abs() <= 0.25 * self.planted_ns
    }
}

/// Wraps `app`'s generated streams in [`Planted`] and passes them to the
/// public `run_streams`, alternating with the plain streams, and measures
/// generation and the whole run both ways.
pub fn planted_selftest(
    builder: &SimulationBuilder,
    app: AppPreset,
    target_ns: f64,
    reps: usize,
) -> Result<PlantedResult, String> {
    let ns_per_iter = spin_ns_per_iter();
    let iters = (target_ns / ns_per_iter).round().max(1.0) as u64;
    let planted_ns = iters as f64 * ns_per_iter;
    let cfg = builder.build().map_err(|e| e.to_string())?.config().clone();
    let model = cfg.adjusted_model(&app.model());
    let streams = |iters: u64| -> Vec<Planted<ThreadStream>> {
        (0..model.threads)
            .map(|t| Planted {
                inner: ThreadStream::new(&model, t, cfg.seed),
                iters,
            })
            .collect()
    };
    let drain = |iters: u64| {
        let (n, secs) = timed(|| drain_interleaved(streams(iters)));
        secs * 1e9 / n as f64
    };
    let run = |iters: u64| -> Result<(f64, String), String> {
        let mut sim = builder.build().map_err(|e| e.to_string())?;
        let (r, secs) = timed(|| sim.system_mut().run_streams(&model.name, streams(iters)));
        let r = r.map_err(|e| e.to_string())?;
        Ok((secs * 1e9 / r.counts.dl1_accesses as f64, json::report(&r)))
    };
    // Adjacent (plain, planted) pairs in alternating order; the shift of
    // the unattributed remainder is taken within each pair.
    let (mut rises, mut shifts) = (Vec::new(), Vec::new());
    let mut identical = true;
    for k in 0..reps {
        let mut gen = [0.0; 2];
        let mut live = [0.0; 2];
        let mut json = [String::new(), String::new()];
        for side in [k % 2, 1 - k % 2] {
            let spin_iters = if side == 1 { iters } else { 0 };
            gen[side] = drain(spin_iters);
            (live[side], json[side]) = run(spin_iters)?;
        }
        identical &= json[0] == json[1];
        let rise = gen[1] - gen[0];
        rises.push(rise);
        // unattributed = live − gen − Σlayers with the same Σlayers both
        // ways, so its shift is the run's rise minus generation's rise.
        shifts.push(live[1] - live[0] - rise);
    }
    let gen_rise_ns = median(&rises);
    let unattributed_shift_ns = median(&shifts);
    Ok(PlantedResult {
        planted_ns,
        gen_rise_ns,
        unattributed_shift_ns,
        report_identical: identical,
    })
}
