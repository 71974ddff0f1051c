//! The parallel sweep runner.
//!
//! [`SweepRunner`] is the one entry point for running an [`ExperimentConfig`]
//! — the paper's 473 simulations, or any subset. It shards the
//! `(application × retention × policy)` points across `std::thread` workers:
//! every point is an independent simulation with its own seed-derived
//! streams, so the runner executes them in any order, streams completions
//! through a [`ProgressObserver`], and merges the reports into
//! [`SweepResults`] in the deterministic job order — the merged results are
//! identical whatever the worker count.
//!
//! Custom [`PolicyFactory`] policies ride along with the built-in descriptor
//! sweep via [`ExperimentConfig::models`]; their reports are keyed by their
//! labels next to the descriptor labels.
//!
//! # Example
//!
//! ```
//! use refrint::experiment::ExperimentConfig;
//! use refrint::sweep::SweepRunner;
//! use refrint_edram::policy::RefreshPolicy;
//! use refrint_workloads::apps::AppPreset;
//!
//! let config = ExperimentConfig {
//!     apps: vec![AppPreset::Lu],
//!     retentions_us: vec![50],
//!     policies: vec![RefreshPolicy::recommended()],
//!     refs_per_thread: 1_000,
//!     cores: 2,
//!     ..ExperimentConfig::default()
//! };
//! let results = SweepRunner::new(config).workers(2).run().unwrap();
//! assert_eq!(results.sram.len(), 1);
//! assert_eq!(results.edram.len(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use refrint_coherence::protocol::CoherenceProtocol;
use refrint_edram::model::PolicyFactory;
use refrint_edram::policy::RefreshPolicy;
use refrint_edram::variation::RetentionProfile;
use refrint_energy::tech::CellTech;
use refrint_workloads::apps::AppPreset;

use refrint_trace::TraceFile;

use crate::config::SystemConfig;
use crate::error::RefrintError;
use crate::experiment::{ExperimentConfig, SweepResults, TraceSpec};
use crate::replay;
use crate::report::SimReport;
use crate::system::CmpSystem;

/// A completed-run notification streamed by the [`SweepRunner`].
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Runs completed so far (including this one).
    pub completed: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// The application that was simulated.
    pub app: String,
    /// The configuration label (e.g. `SRAM`, `eDRAM 50us R.WB(32,32)`).
    pub config_label: String,
    /// Retention time of the point, or `None` for the SRAM baseline.
    pub retention_us: Option<u64>,
}

/// Receives completion events while a sweep is running. Implemented for any
/// `Fn(&SweepProgress) + Send + Sync` closure.
///
/// Events arrive from worker threads in completion order (not job order).
/// Callbacks are serialized — at most one runs at a time, with strictly
/// increasing `completed` counts — so observers need no locking of their
/// own, but a slow observer backpressures the workers.
pub trait ProgressObserver: Send + Sync {
    /// Called once per finished simulation.
    fn on_run_complete(&self, progress: &SweepProgress);
}

impl<F> ProgressObserver for F
where
    F: Fn(&SweepProgress) + Send + Sync,
{
    fn on_run_complete(&self, progress: &SweepProgress) {
        self(progress)
    }
}

/// The policy of one eDRAM sweep point: a built-in descriptor (the private
/// caches inherit its time policy, per Section 6.2) or a custom model (the
/// private caches then run the recommended `Refrint Valid` setup).
#[derive(Debug, Clone)]
enum PolicyChoice {
    Builtin(RefreshPolicy),
    Custom(Arc<dyn PolicyFactory>),
}

impl PolicyChoice {
    fn label(&self) -> String {
        match self {
            PolicyChoice::Builtin(policy) => policy.label(),
            PolicyChoice::Custom(factory) => factory.label(),
        }
    }
}

/// What a job simulates: a synthetic application preset or a recorded
/// trace. Both run through the same system; reports are keyed by
/// [`Workload::key`].
#[derive(Debug, Clone)]
enum Workload {
    App(AppPreset),
    Trace(TraceSpec),
}

impl Workload {
    fn key(&self) -> String {
        match self {
            Workload::App(app) => app.name().to_owned(),
            Workload::Trace(spec) => spec.name.clone(),
        }
    }
}

/// One schedulable simulation of the sweep.
#[derive(Debug, Clone)]
enum Job {
    Sram {
        workload: Workload,
        protocol: CoherenceProtocol,
    },
    Edram {
        workload: Workload,
        retention_us: u64,
        policy: PolicyChoice,
        protocol: CoherenceProtocol,
        profile: RetentionProfile,
    },
}

impl Job {
    fn workload(&self) -> &Workload {
        match self {
            Job::Sram { workload, .. } | Job::Edram { workload, .. } => workload,
        }
    }
}

/// The report-key suffix carrying a point's non-default axes — empty for
/// the default MESI + uniform combination, so default sweeps keep their
/// historical keys (and JSON documents) byte for byte. Public because the
/// serve coordinator composes the same keys when it merges fanned-out
/// point reports; one implementation keeps the two byte-identical.
#[must_use]
pub fn axis_suffix(protocol: CoherenceProtocol, profile: RetentionProfile) -> String {
    let mut suffix = String::new();
    if !protocol.is_default() {
        suffix.push(' ');
        suffix.push_str(protocol.label());
    }
    if !profile.is_default() {
        suffix.push(' ');
        suffix.push_str(&profile.label());
    }
    suffix
}

/// Runs an experiment sweep across a configurable number of worker threads.
///
/// Results are merged in deterministic job order, so for a fixed
/// [`ExperimentConfig`] the output is identical for every worker count
/// (including the single-worker `workers(1)` path).
pub struct SweepRunner {
    config: ExperimentConfig,
    workers: usize,
    observer: Option<Arc<dyn ProgressObserver>>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl SweepRunner {
    /// Creates a runner for `config`, defaulting to one worker per available
    /// CPU.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner {
            config,
            workers,
            observer: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Streams completion events to `observer` while the sweep runs.
    #[must_use]
    pub fn observer(mut self, observer: impl ProgressObserver + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// The experiment configuration this runner will execute.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Builds the deterministic job list: for each workload (applications
    /// first, then traces), the SRAM baseline followed by every
    /// (retention × policy) eDRAM point — descriptor policies first, then
    /// custom models.
    fn jobs(&self) -> Vec<Job> {
        let workloads = self
            .config
            .apps
            .iter()
            .map(|&app| Workload::App(app))
            .chain(self.config.traces.iter().cloned().map(Workload::Trace));
        let protocols: &[CoherenceProtocol] = if self.config.protocols.is_empty() {
            &[CoherenceProtocol::Mesi]
        } else {
            &self.config.protocols
        };
        let profiles: &[RetentionProfile] = if self.config.retention_profiles.is_empty() {
            &[RetentionProfile::Uniform]
        } else {
            &self.config.retention_profiles
        };
        let mut jobs = Vec::with_capacity(self.config.total_runs());
        for workload in workloads {
            for &protocol in protocols {
                jobs.push(Job::Sram {
                    workload: workload.clone(),
                    protocol,
                });
                for &retention_us in &self.config.retentions_us {
                    for &policy in &self.config.policies {
                        for &profile in profiles {
                            jobs.push(Job::Edram {
                                workload: workload.clone(),
                                retention_us,
                                policy: PolicyChoice::Builtin(policy),
                                protocol,
                                profile,
                            });
                        }
                    }
                    for factory in &self.config.models {
                        for &profile in profiles {
                            jobs.push(Job::Edram {
                                workload: workload.clone(),
                                retention_us,
                                policy: PolicyChoice::Custom(Arc::clone(factory)),
                                protocol,
                                profile,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    fn system_config(&self, job: &Job) -> Result<SystemConfig, RefrintError> {
        let base = SystemConfig::sram_baseline()
            .with_cores(self.config.cores)
            .with_seed(self.config.seed)
            .with_scale(self.config.refs_per_thread);
        Ok(match job {
            Job::Sram { protocol, .. } => base.with_protocol(*protocol),
            Job::Edram {
                retention_us,
                policy,
                protocol,
                profile,
                ..
            } => {
                let base = base
                    .with_cells(CellTech::Edram)
                    .with_retention(ExperimentConfig::retention(*retention_us)?)
                    .with_protocol(*protocol)
                    .with_retention_profile(*profile);
                match policy {
                    PolicyChoice::Builtin(policy) => base.with_policy(*policy),
                    PolicyChoice::Custom(factory) => base
                        .with_policy(RefreshPolicy::recommended())
                        .with_policy_model(Arc::clone(factory)),
                }
            }
        })
    }

    fn run_job(
        &self,
        job: &Job,
        traces: &BTreeMap<String, TraceFile>,
    ) -> Result<SimReport, RefrintError> {
        let config = self.system_config(job)?;
        let mut system = CmpSystem::new(config)?;
        match job.workload() {
            Workload::App(app) => Ok(system.run_app(*app)),
            Workload::Trace(spec) => {
                let trace = traces
                    .get(&spec.name)
                    .expect("every trace was opened by the pre-check");
                replay::replay(&mut system, trace)
            }
        }
    }

    /// Runs the sweep and merges the reports.
    ///
    /// # Errors
    ///
    /// Returns the earliest-in-job-order [`RefrintError`] among the jobs
    /// that ran. Workers stop claiming new jobs as soon as any job fails,
    /// so a bad configuration does not burn through the rest of an
    /// expensive sweep first.
    pub fn run(&self) -> Result<SweepResults, RefrintError> {
        // Reports are keyed by policy label, so colliding labels (between
        // descriptor policies and custom models, or among the models) would
        // silently overwrite each other in the merge. Reject them up front.
        let mut labels = std::collections::BTreeSet::new();
        for label in self
            .config
            .policies
            .iter()
            .map(RefreshPolicy::label)
            .chain(self.config.models.iter().map(|m| m.label()))
        {
            if !labels.insert(label.clone()) {
                return Err(RefrintError::InvalidConfig {
                    reason: format!(
                        "duplicate refresh-policy label `{label}` in the sweep \
                         (reports are keyed by label)"
                    ),
                });
            }
        }

        // Workload keys (application names and trace names) share one
        // report namespace; a collision would silently overwrite reports.
        let mut keys = std::collections::BTreeSet::new();
        for key in self
            .config
            .apps
            .iter()
            .map(|a| a.name().to_owned())
            .chain(self.config.traces.iter().map(|t| t.name.clone()))
        {
            if !keys.insert(key.clone()) {
                return Err(RefrintError::InvalidConfig {
                    reason: format!(
                        "duplicate workload `{key}` in the sweep \
                         (reports are keyed by workload name)"
                    ),
                });
            }
        }

        // Open and check every trace before burning through any
        // simulations: an unreadable file or a thread/core mismatch fails
        // the sweep immediately instead of after the earlier jobs have run.
        // The opened (indexed) files are shared with the jobs, so a trace
        // swept over many configuration points is indexed exactly once.
        let mut traces: BTreeMap<String, TraceFile> = BTreeMap::new();
        for spec in &self.config.traces {
            let trace = TraceFile::open(&spec.path).map_err(|e| RefrintError::Trace {
                reason: format!("{}: {e}", spec.path.display()),
            })?;
            let threads = trace.meta().threads;
            if threads != self.config.cores {
                return Err(RefrintError::Trace {
                    reason: format!(
                        "trace `{}` ({}) has {threads} threads but the sweep is configured \
                         for {} cores",
                        spec.name,
                        spec.path.display(),
                        self.config.cores
                    ),
                });
            }
            traces.insert(spec.name.clone(), trace);
        }
        let traces = &traces;

        let jobs = self.jobs();
        let total = jobs.len();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // The observer lock makes increment + callback one atomic step, so
        // callbacks are serialized with strictly increasing counts.
        let progress = Mutex::new(0usize);
        let slots: Mutex<Vec<Option<Result<SimReport, RefrintError>>>> =
            Mutex::new((0..total).map(|_| None).collect());

        let worker = || loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                break;
            }
            let job = &jobs[index];
            let result = self.run_job(job, traces);
            match &result {
                Ok(report) => {
                    if let Some(observer) = &self.observer {
                        let retention_us = match job {
                            Job::Sram { .. } => None,
                            Job::Edram { retention_us, .. } => Some(*retention_us),
                        };
                        let mut done = progress.lock().expect("observer lock never poisoned");
                        *done += 1;
                        observer.on_run_complete(&SweepProgress {
                            completed: *done,
                            total,
                            app: job.workload().key(),
                            config_label: report.config_label.clone(),
                            retention_us,
                        });
                    }
                }
                Err(_) => failed.store(true, Ordering::Relaxed),
            }
            slots.lock().expect("no worker panicked holding the lock")[index] = Some(result);
        };

        let workers = self.workers.min(total.max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        let slots = slots.into_inner().expect("all workers joined");
        // On failure, report the first error in job order (deterministic
        // whatever the interleaving was).
        for slot in &slots {
            if let Some(Err(e)) = slot {
                return Err(e.clone());
            }
        }

        // Deterministic merge in job order.
        let mut results = SweepResults {
            apps: self.config.apps.clone(),
            retentions_us: self.config.retentions_us.clone(),
            policies: self.config.policies.clone(),
            custom_labels: self.config.models.iter().map(|m| m.label()).collect(),
            traces: self.config.traces.clone(),
            ..SweepResults::default()
        };
        for (job, slot) in jobs.iter().zip(slots) {
            let report = slot
                .expect("with no failed job, every index was claimed and filled")
                .expect("errors were returned above");
            match job {
                Job::Sram { workload, protocol } => {
                    let key = format!(
                        "{}{}",
                        workload.key(),
                        axis_suffix(*protocol, RetentionProfile::Uniform)
                    );
                    results.sram.insert(key, report);
                }
                Job::Edram {
                    workload,
                    retention_us,
                    policy,
                    protocol,
                    profile,
                } => {
                    let label = format!("{}{}", policy.label(), axis_suffix(*protocol, *profile));
                    results
                        .edram
                        .insert((workload.key(), *retention_us, label), report);
                }
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
    use std::sync::atomic::AtomicUsize;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            apps: vec![AppPreset::Blackscholes, AppPreset::Fft],
            retentions_us: vec![50],
            policies: vec![
                RefreshPolicy::edram_baseline(),
                RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            ],
            refs_per_thread: 1_200,
            seed: 3,
            cores: 4,
            models: Vec::new(),
            traces: Vec::new(),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn parallel_results_match_sequential_results_exactly() {
        let sequential = SweepRunner::new(tiny_config()).workers(1).run().unwrap();
        let parallel = SweepRunner::new(tiny_config()).workers(4).run().unwrap();
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn observer_sees_every_run() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_observer = Arc::clone(&seen);
        let config = tiny_config();
        let total = config.total_runs();
        let results = SweepRunner::new(config)
            .workers(2)
            .observer(move |p: &SweepProgress| {
                seen_in_observer.fetch_add(1, Ordering::Relaxed);
                assert!(p.completed <= p.total);
                assert!(!p.config_label.is_empty());
            })
            .run()
            .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), total);
        assert_eq!(results.sram.len() + results.edram.len(), total);
    }

    #[test]
    fn invalid_points_surface_the_first_error() {
        let mut config = tiny_config();
        config.retentions_us = vec![50, 1]; // 1 us < sentry margin: invalid.
        let err = SweepRunner::new(config).workers(2).run().unwrap_err();
        assert!(err.to_string().contains("retention"), "{err}");
    }

    #[test]
    fn worker_count_is_clamped() {
        let runner = SweepRunner::new(tiny_config()).workers(0);
        assert_eq!(runner.workers, 1);
    }

    #[test]
    fn traces_sweep_alongside_apps_with_identical_reports() {
        let path =
            std::env::temp_dir().join(format!("refrint-sweep-{}-trace.rft", std::process::id()));
        // Capture with exactly the chip parameters the sweep derives.
        let capture_config = SystemConfig::sram_baseline()
            .with_cores(4)
            .with_seed(3)
            .with_scale(1_200);
        crate::replay::capture_to_path(
            &capture_config,
            &AppPreset::Lu.model(),
            &path,
            refrint_trace::TraceFormat::Binary,
        )
        .unwrap();

        let mut config = tiny_config();
        config.apps = vec![AppPreset::Lu];
        config.traces = vec![TraceSpec::named("lu-trace", &path)];
        assert_eq!(config.total_runs(), 2 * (1 + 2));
        let results = SweepRunner::new(config).workers(2).run().unwrap();

        // The replayed runs mirror the synthetic runs bit for bit.
        let live = results.sram_report(AppPreset::Lu).unwrap();
        let replayed = results.sram_report_named("lu-trace").unwrap();
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        let label = RefreshPolicy::edram_baseline().label();
        let live = results.edram_report_named("lu", 50, &label).unwrap();
        let replayed = results.edram_report_named("lu-trace", 50, &label).unwrap();
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        assert_eq!(results.traces.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_workload_keys_are_rejected() {
        let mut config = tiny_config();
        config.traces = vec![TraceSpec::named("fft", "unused.rft")];
        let err = SweepRunner::new(config).run().unwrap_err();
        assert!(err.to_string().contains("duplicate workload"), "{err}");
    }

    #[test]
    fn missing_trace_files_fail_the_sweep_with_a_typed_error() {
        let mut config = tiny_config();
        config.traces = vec![TraceSpec::named("ghost", "/nonexistent/ghost.rft")];
        let err = SweepRunner::new(config).workers(2).run().unwrap_err();
        assert!(matches!(err, RefrintError::Trace { .. }), "{err}");
    }

    #[test]
    fn protocol_and_profile_axes_expand_and_compose_keys() {
        let mut config = tiny_config();
        config.apps = vec![AppPreset::Lu];
        config.policies = vec![RefreshPolicy::recommended()];
        config.protocols = vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];
        config.retention_profiles = vec![
            RetentionProfile::Uniform,
            RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            },
        ];
        // 1 app x 2 protocols x (1 SRAM + 1 retention x 1 policy x 2 profiles).
        assert_eq!(config.total_runs(), 6);
        let results = SweepRunner::new(config).workers(3).run().unwrap();
        assert_eq!(results.sram.len(), 2);
        assert_eq!(results.edram.len(), 4);
        assert!(results.sram.contains_key("lu"));
        assert!(results.sram.contains_key("lu dragon"));
        for label in [
            "R.WB(32,32)",
            "R.WB(32,32) bimodal(25,60)",
            "R.WB(32,32) dragon",
            "R.WB(32,32) dragon bimodal(25,60)",
        ] {
            assert!(
                results.edram_report_named("lu", 50, label).is_some(),
                "missing point `{label}`"
            );
        }
        // The default-axes point is byte-identical to a sweep without the
        // new axes at all.
        let mut plain = tiny_config();
        plain.apps = vec![AppPreset::Lu];
        plain.policies = vec![RefreshPolicy::recommended()];
        let plain = SweepRunner::new(plain).workers(1).run().unwrap();
        assert_eq!(
            format!("{:?}", results.edram_report_named("lu", 50, "R.WB(32,32)")),
            format!("{:?}", plain.edram_report_named("lu", 50, "R.WB(32,32)")),
        );
        // The sweep JSON carries the composed labels.
        let doc = crate::json::sweep(&results);
        assert!(doc.contains("R.WB(32,32) dragon bimodal(25,60)"), "{doc}");
    }

    #[test]
    fn duplicate_policy_labels_are_rejected() {
        let mut config = tiny_config();
        config.policies.push(config.policies[0]);
        let err = SweepRunner::new(config).run().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }
}
