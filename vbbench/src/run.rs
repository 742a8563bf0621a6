//! One run of one workload: set up, then start the workload's studies one
//! at a time (a closed loop with a single client), and reduce what was
//! measured to metrics.
//!
//! Set-up builds the inputs and runs a warm-up study once, so lazy
//! initialisation and caches settle before timing starts; a cache the
//! program fills there shows in `setup_s`. It is sampled in this process
//! and in fresh child processes spread over the run, each cold, and
//! `setup_s` is the median.
//!
//! Each study runs once, untraced, between two timings of the host
//! yardstick (see [`host`]); `site_steps_per_s` and `setup_s` are stated
//! at the reference host speed. An untraced run stops early only on a
//! host much slower than the one its study rates were measured on. A
//! traced run repeats every [`TRACE_EVERY`]th study with tracing on,
//! drains the trace collector after it and reduces the spans with
//! `phase_breakdown` into per-layer times; its untraced copy is the
//! reference for the tracing overhead. A traced run always runs its whole
//! list, so that its counts repeat exactly. Every repeated study, the
//! warm-up in every set-up process included, must reproduce its outputs
//! bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::heap;
use crate::host;
use crate::metrics::{
    self, geometric_mean, median, percentile, ratio, sorted, tail_per_mille, top_hundredth_mean,
    Metric,
};
use crate::probe::{run_study, Fnv, StudyRecord, INTERVAL_S};
use crate::workload::{prepare, Prepared, Study, Workload};

/// Set-ups sampled per run: this process's own and the rest in children.
const SETUP_SAMPLES: usize = 5;

/// A traced run repeats one study in this many, traced. Prime to both
/// policy cycles (4 and 3), so the traced studies cover every policy.
const TRACE_EVERY: usize = 5;

/// An untraced run starts no more studies once this many times `--seconds`
/// have passed, so a host much slower than the one the study rates were
/// measured on cannot stretch it without bound.
const OVERRUN: f64 = 1.2;

const MB: f64 = 1024.0 * 1024.0;

/// `vb-par` worker threads. One: on a two-vCPU container shared with
/// other tenants, a two-thread run measures the scheduler as much as the
/// program (parallel branch and bound waits at each batch for its slower
/// thread). Eight back-to-back runs of one `fleet_mip` input spread 0.18
/// (quartile distance over median) on two threads and, in the minutes
/// after, 0.03 on one, at about the same median. Outputs are
/// bit-identical at any thread count.
pub const THREADS: usize = 1;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// FNV-1a over every study's outputs.
    pub digest: u64,
    pub studies: usize,
    /// Human-readable findings printed before the result line.
    pub notes: Vec<String>,
}

/// Summed span time of one name (from `phase_breakdown`).
#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    count: u64,
    total_s: f64,
    self_s: f64,
}

/// One study that ran: its output digest and wall time.
#[derive(Clone, Copy)]
struct Ran {
    digest: u64,
    wall_s: f64,
}

/// Everything measured over a run's studies in one mode.
#[derive(Default)]
struct Tally {
    /// Σ study wall time: the measured work, without bookkeeping.
    wall_s: f64,
    /// Σ study wall time over the host's slowdown during the study, for
    /// the studies timed against the yardstick.
    ref_wall_s: f64,
    /// The host's slowdown during each study timed against the yardstick.
    slowdowns: Vec<f64>,
    cpu_s: f64,
    site_steps: u64,
    /// Per study started, in order; `None` for a failed study.
    runs: Vec<Option<Ran>>,
    /// Each study's peak live heap above what was in use when it began.
    heap_mb: Vec<f64>,
    plan_ms: Vec<f64>,
    rehost_calls: u64,
    rehost_s: f64,
    failures: Vec<String>,
    counters: BTreeMap<String, u64>,
    phases: BTreeMap<String, Phase>,
    /// Time in outermost `solver.mip_solve` spans.
    mip_solve_s: f64,
    /// Every step's migration volume, over all studies.
    step_gb: Vec<f64>,
    wan_busy_s: f64,
    dropped_apps: u64,
    vm_decisions: u64,
    trace_drops: u64,
    /// The first traced study's Chrome trace.
    first_trace: Option<String>,
}

impl Tally {
    fn phase(&self, name: &str) -> Phase {
        self.phases.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn digest(&self, k: usize) -> Option<u64> {
        self.runs.get(k).copied().flatten().map(|r| r.digest)
    }

    fn add(&mut self, rec: StudyRecord) -> Ran {
        self.wall_s += rec.wall_s;
        self.site_steps += rec.site_steps;
        self.plan_ms.extend(rec.plan_ms);
        self.rehost_calls += rec.rehost_calls;
        self.rehost_s += rec.rehost_s;
        self.wan_busy_s += rec.wan_busy_s;
        self.dropped_apps += rec.dropped_apps;
        self.vm_decisions += rec.vm_decisions;
        self.step_gb.extend(rec.per_step_gb);
        Ran {
            digest: rec.digest,
            wall_s: rec.wall_s,
        }
    }

    /// Fold a traced study's drained events into the tally.
    fn add_trace(&mut self, json: &str) {
        let spans = match vb_telemetry::parse_chrome_trace(json) {
            Ok(spans) => spans,
            Err(e) => {
                self.failures
                    .push(format!("trace export does not parse: {e}"));
                return;
            }
        };
        for p in vb_telemetry::phase_breakdown(&spans) {
            let ph = self.phases.entry(p.name).or_default();
            ph.count += p.count;
            ph.total_s += p.total_us * 1e-6;
            ph.self_s += p.self_us * 1e-6;
        }
        let solves: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "solver.mip_solve")
            .map(|s| s.id)
            .collect();
        self.mip_solve_s += spans
            .iter()
            .filter(|s| s.name == "solver.mip_solve" && !solves.contains(&s.parent))
            .map(|s| s.dur_us * 1e-6)
            .sum::<f64>();
    }

    /// Run one study and fold in its outputs, counters and (traced)
    /// spans; when `scaled`, time the host yardstick on either side of it.
    fn run(&mut self, prepared: &Prepared, study: &Study, traced: bool, scaled: bool) {
        let catalog = &prepared.catalogs[study.catalog];
        vb_telemetry::reset();
        vb_telemetry::set_trace_enabled(traced);
        let before_ms = scaled.then(host::yardstick_ms);
        let cpu0 = metrics::cpu_seconds();
        let heap0 = heap::reset_peak();
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_study(catalog, study, traced)))
                .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))));
        self.heap_mb
            .push(heap::peak().saturating_sub(heap0) as f64 / MB);
        self.cpu_s += metrics::cpu_seconds() - cpu0;
        let slowdown = before_ms.map(|before| host::slowdown(before, host::yardstick_ms()));
        vb_telemetry::set_trace_enabled(false);
        let ran = match outcome {
            Ok(rec) => {
                if let Some(s) = slowdown {
                    self.ref_wall_s += rec.wall_s / s;
                    self.slowdowns.push(s);
                }
                Some(self.add(rec))
            }
            Err(e) => {
                self.failures.push(e);
                None
            }
        };
        self.runs.push(ran);
        for (name, v) in vb_telemetry::snapshot().counters {
            *self.counters.entry(name).or_default() += v;
        }
        if traced {
            let events = vb_telemetry::trace_events();
            self.trace_drops += vb_telemetry::trace_drops();
            let json = vb_telemetry::chrome_trace_json(&events);
            self.add_trace(&json);
            self.first_trace.get_or_insert(json);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// One set-up: the inputs, the warm-up study's run, and its timing.
struct SetUp {
    prepared: Prepared,
    warm: Tally,
    sample: SetupSample,
}

/// Build the inputs and run the warm-up study once, timed against the
/// yardstick on either side.
fn set_up(cfg: &RunConfig) -> SetUp {
    let before_ms = host::yardstick_ms();
    let t = Instant::now();
    let prepared = prepare(cfg.workload, cfg.seed, cfg.workload.studies(cfg.seconds));
    let mut warm = Tally::default();
    warm.run(&prepared, &prepared.warmup(), false, false);
    let setup_s = t.elapsed().as_secs_f64();
    let slowdown = host::slowdown(before_ms, host::yardstick_ms());
    SetUp {
        sample: SetupSample {
            setup_s: setup_s / slowdown,
            select_group_s: prepared.select_group_s,
            digest: warm.digest(0).unwrap_or(0),
        },
        prepared,
        warm,
    }
}

/// One set-up's timings and warm-up output, as a set-up process prints
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupSample {
    /// At the reference host speed.
    pub setup_s: f64,
    pub select_group_s: f64,
    /// The warm-up study's output digest.
    pub digest: u64,
}

impl SetupSample {
    const PREFIX: &'static str = "setup ";

    pub fn line(&self) -> String {
        format!(
            "{}{} {} {:016x}",
            Self::PREFIX,
            self.setup_s,
            self.select_group_s,
            self.digest
        )
    }

    fn parse(stdout: &str) -> Option<SetupSample> {
        let line = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix(Self::PREFIX))?;
        let mut v = line.split(' ');
        let mut time = || v.next()?.parse::<f64>().ok();
        let (setup_s, select_group_s) = (time()?, time()?);
        let digest = u64::from_str_radix(v.next()?, 16).ok()?;
        v.next().is_none().then_some(SetupSample {
            setup_s,
            select_group_s,
            digest,
        })
    }
}

/// Set up once and report it, or why the warm-up study failed.
pub fn setup_only(cfg: &RunConfig) -> Result<SetupSample, String> {
    vb_par::with_threads(THREADS, || {
        vb_telemetry::set_trace_enabled(false);
        let s = set_up(cfg);
        match s.warm.failures.first() {
            Some(e) => Err(e.clone()),
            None => Ok(s.sample),
        }
    })
}

/// Set up in a fresh copy of this executable and wait for it to end.
fn sample_setup(cfg: &RunConfig) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate vbbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    match SetupSample::parse(&String::from_utf8_lossy(&out.stdout)) {
        Some(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Where a traced run writes its Chrome trace: beside the executable,
/// inside the build directory.
fn write_trace(workload: Workload, json: &str) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let path = exe.with_file_name(format!("vbbench-{}.trace.json", workload.name()));
    std::fs::write(&path, json).ok()?;
    Some(path.display().to_string())
}

/// Run one workload under `cfg`, with `vb-par` pinned to [`THREADS`].
pub fn run(cfg: &RunConfig) -> RunOutcome {
    vb_par::with_threads(THREADS, || run_pinned(cfg))
}

fn run_pinned(cfg: &RunConfig) -> RunOutcome {
    vb_telemetry::set_trace_enabled(false);
    let SetUp {
        prepared,
        warm,
        sample,
    } = set_up(cfg);
    let mut samples = vec![Ok(sample)];

    // The child set-ups are spread evenly over the studies, so that a
    // burst of host contention moves one or two of them, not the median.
    let n = prepared.studies.len();
    let sample_after: Vec<usize> = (1..SETUP_SAMPLES).map(|j| j * n / SETUP_SAMPLES).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * cfg.seconds);
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    for (k, study) in prepared.studies.iter().enumerate() {
        if !cfg.traced && Instant::now() >= deadline {
            break;
        }
        plain.run(&prepared, study, false, true);
        if cfg.traced && k % TRACE_EVERY == 0 {
            traced.run(&prepared, study, true, false);
        }
        if sample_after.contains(&(k + 1)) {
            samples.push(sample_setup(cfg));
        }
    }
    while samples.len() < SETUP_SAMPLES {
        samples.push(sample_setup(cfg));
    }
    let mut setups = Vec::new();
    let mut setup_failures = Vec::new();
    for s in samples {
        match s {
            Ok(s) => setups.push(s),
            Err(e) => setup_failures.push(e),
        }
    }

    // Repeats must reproduce their first run's outputs bit for bit: the
    // warm-up study in every set-up process, and each traced study.
    let started = plain.runs.len();
    let repeats = setups
        .iter()
        .map(|s| (Some(s.digest), warm.digest(0)))
        .chain((0..traced.runs.len()).map(|j| (traced.digest(j), plain.digest(j * TRACE_EVERY))));
    let drift = repeats
        .filter(|pair| matches!(pair, (Some(a), Some(b)) if a != b))
        .count();

    let mut notes = Vec::new();
    if started < n {
        notes.push(format!(
            "stopped after {started} of {n} studies: {OVERRUN} x --seconds passed"
        ));
    }
    if drift > 0 {
        notes.push(format!(
            "{drift} repeated studies differ from their first run"
        ));
    }
    let failures: Vec<&String> = [&warm, &plain, &traced]
        .into_iter()
        .flat_map(|t| &t.failures)
        .chain(&setup_failures)
        .collect();
    for f in failures.iter().take(5) {
        notes.push(format!("failed: {f}"));
    }
    let failed = (failures.len() + drift) as u64;
    let attempted = [&warm, &plain, &traced]
        .into_iter()
        .map(|t| t.runs.len() as u64)
        .sum::<u64>()
        + (SETUP_SAMPLES - 1) as u64;
    let correct = failed == 0 && traced.trace_drops == 0;

    let mut digest = Fnv::default();
    prepared.selected_group.iter().for_each(|s| digest.str(s));
    plain
        .runs
        .iter()
        .for_each(|r| digest.u64(r.map_or(0, |r| r.digest)));

    let study_ms = sorted(plain.runs.iter().flatten().map(|r| r.wall_s * 1e3));
    let mut latency = format!(
        "study latency over {} studies: p50 {:.1} ms",
        study_ms.len(),
        median(study_ms.iter().copied())
    );
    if let Some(q) = tail_per_mille(study_ms.len()).filter(|&q| q > 500) {
        let tail = percentile(&study_ms, q).unwrap_or(0.0);
        latency += &format!(", p{} {tail:.1} ms", q as f64 / 10.0);
    }
    notes.push(latency);
    let plan_ms = sorted(plain.plan_ms.iter().copied());
    if let Some(q) = tail_per_mille(plan_ms.len()) {
        notes.push(format!(
            "plan latency over {} calls: p50 {:.3} ms, p{} {:.3} ms",
            plan_ms.len(),
            percentile(&plan_ms, 500).unwrap_or(0.0),
            q as f64 / 10.0,
            percentile(&plan_ms, q).unwrap_or(0.0)
        ));
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    notes.push(format!(
        "setup: median of {} cold set-ups, {:.4} to {:.4} s at the reference host speed; \
         process peak RSS {:.1} MB",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
        metrics::peak_rss_mb()
    ));
    let slowdowns = sorted(plain.slowdowns.iter().copied());
    notes.push(format!(
        "host slowdown against the reference over {} studies: median {:.3}, {:.3} to {:.3}; \
         raw throughput {:.1} site-steps/s",
        slowdowns.len(),
        median(slowdowns.iter().copied()),
        slowdowns.first().unwrap_or(&0.0),
        slowdowns.last().unwrap_or(&0.0),
        ratio(plain.site_steps as f64, plain.wall_s)
    ));
    let metrics = if cfg.traced {
        if let Some(path) = traced
            .first_trace
            .as_deref()
            .and_then(|json| write_trace(cfg.workload, json))
        {
            notes.push(format!("chrome trace of the first traced study: {path}"));
        }
        notes.extend(layer_shares(&traced));
        // Traced over untraced time of the same studies.
        let (traced_s, plain_s) = traced
            .runs
            .iter()
            .enumerate()
            .filter_map(|(j, r)| Some(((*r)?, plain.runs.get(j * TRACE_EVERY).copied()??)))
            .fold((0.0, 0.0), |(t, p), (a, b)| (t + a.wall_s, p + b.wall_s));
        let select_group_s = median(setups.iter().map(|s| s.select_group_s));
        per_layer(
            &plain,
            &traced,
            ratio(traced_s, plain_s) - 1.0,
            select_group_s,
        )
    } else {
        let studies = plain.runs.iter().flatten().count() as f64;
        let step_gb = sorted(plain.step_gb.iter().copied());
        vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(setup_s),
            },
            Metric {
                name: "site_steps_per_s",
                unit: "site-steps/s",
                value: ratio(plain.site_steps as f64, plain.ref_wall_s),
            },
            Metric {
                name: "study_heap_mb",
                unit: "MB",
                value: geometric_mean(&plain.heap_mb),
            },
            Metric {
                name: "migration_total_gb",
                unit: "GB",
                value: ratio(step_gb.iter().sum(), studies),
            },
            Metric {
                name: "migration_tail_gb",
                unit: "GB",
                value: top_hundredth_mean(&step_gb),
            },
        ]
    };
    RunOutcome {
        correct,
        attempted,
        failed,
        metrics,
        digest: digest.finish(),
        studies: n,
        notes,
    }
}

/// The per-layer metrics of a traced run, summed over its traced studies;
/// plan latency and CPU use come from every study's untraced run.
fn per_layer(plain: &Tally, traced: &Tally, overhead: f64, select_group_s: f64) -> Vec<Metric> {
    let span = |name: &str| traced.phase(name).total_s;
    let c = |name: &str| traced.counter(name);
    let plan_ms = sorted(plain.plan_ms.iter().copied());
    let site_steps = traced.site_steps as f64;
    let wakeups = c("sched.event_wakeups");
    let stale = c("sched.stale_events");
    let expanded = c("solver.mip_nodes_expanded");
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("sched.group_new_s", "s", span("bench.group_new")),
        m("trace.generate_s", "s", span("bench.generate")),
        m("trace.forecast_s", "s", span("bench.forecast")),
        m("trace.catalog_trace_s", "s", span("bench.catalog_trace")),
        m("sched.run_s", "s", span("bench.run")),
        m(
            "sched.core_self_s",
            "s",
            span("bench.run") - span("bench.plan") - traced.rehost_s,
        ),
        m("sched.site_steps", "count", site_steps),
        m("sched.vm_decisions", "count", traced.vm_decisions as f64),
        m("sched.dropped_apps", "count", traced.dropped_apps as f64),
        m("sched.rehost_calls", "count", traced.rehost_calls as f64),
        m("sched.rehost_s", "s", traced.rehost_s),
        m(
            "sched.event_wakeups_per_kstep",
            "1/kstep",
            1e3 * ratio(wakeups, site_steps),
        ),
        m(
            "sched.stale_event_frac",
            "ratio",
            ratio(stale, stale + wakeups),
        ),
        m("sched.plan_calls", "count", traced.plan_ms.len() as f64),
        m("sched.plan_s", "s", span("bench.plan")),
        m(
            "sched.plan_self_s",
            "s",
            span("bench.plan") - traced.mip_solve_s,
        ),
        m(
            "sched.plan_p50_ms",
            "ms",
            percentile(&plan_ms, 500).unwrap_or(0.0),
        ),
        m(
            "sched.plan_tail_ms",
            "ms",
            tail_per_mille(plan_ms.len())
                .and_then(|q| percentile(&plan_ms, q))
                .unwrap_or(0.0),
        ),
        m("solver.mip_solve_s", "s", traced.mip_solve_s),
        m("solver.mip_solves", "count", c("solver.mip_solves")),
        m("solver.lp_solves", "count", c("solver.lp_solves")),
        m("solver.pivots", "count", c("solver.pivots")),
        m(
            "solver.pivots_per_lp",
            "ratio",
            ratio(c("solver.pivots"), c("solver.lp_solves")),
        ),
        m(
            "solver.nodes_per_mip",
            "ratio",
            ratio(expanded, c("solver.mip_solves")),
        ),
        m(
            "solver.prune_frac",
            "ratio",
            ratio(c("solver.mip_nodes_pruned"), expanded),
        ),
        m(
            "solver.refactorizations",
            "count",
            c("solver.refactorizations"),
        ),
        m("solver.eta_updates", "count", c("solver.eta_updates")),
        m(
            "solver.presolve_rows_removed",
            "count",
            c("solver.presolve_rows_removed"),
        ),
        m(
            "solver.node_warm_hit_rate",
            "ratio",
            ratio(
                c("solver.warm_start_hits"),
                c("solver.warm_start_hits") + c("solver.warm_start_misses"),
            ),
        ),
        m(
            "solver.epoch_warm_hit_rate",
            "ratio",
            ratio(
                c("solver.epoch_warm_hits"),
                c("solver.epoch_warm_hits") + c("solver.epoch_warm_misses"),
            ),
        ),
        m("solver.fallback_epochs", "count", c("sched.mip_fallbacks")),
        m("net.select_group_s", "s", select_group_s),
        m("net.wan_s", "s", span("bench.wan")),
        m(
            "net.wan_busy_pct",
            "%",
            100.0 * ratio(traced.wan_busy_s, traced.step_gb.len() as f64 * INTERVAL_S),
        ),
        m("cluster.simulate_s", "s", span("bench.cluster_simulate")),
        m(
            "cluster.migrations",
            "count",
            c("cluster.migrations_in") + c("cluster.migrations_out"),
        ),
        m("par.tasks", "count", c("par.tasks")),
        m("par.busy_s", "s", span("par.busy")),
        m(
            "proc.cpu_util",
            "ratio",
            ratio(plain.cpu_s, plain.wall_s * THREADS as f64),
        ),
        m("proc.peak_rss_mb", "MB", metrics::peak_rss_mb()),
        m("telemetry.trace_overhead_pct", "%", 100.0 * overhead),
        m("telemetry.trace_drops", "count", traced.trace_drops as f64),
    ]
}

/// The phases with the most self time in the traced studies, each as a
/// share of the self time of every span on every thread.
fn layer_shares(traced: &Tally) -> Vec<String> {
    let total: f64 = traced.phases.values().map(|p| p.self_s).sum();
    let mut rows: Vec<(&String, &Phase)> = traced.phases.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = vec![format!(
        "span self time over the traced studies, {total:.3} s on all threads:"
    )];
    for (name, ph) in rows.into_iter().take(12) {
        out.push(format!(
            "  {name:<24} {:>10.4} s {:>6.1} %  ({} spans)",
            ph.self_s,
            100.0 * ratio(ph.self_s, total),
            ph.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_line_round_trips() {
        let s = SetupSample {
            setup_s: 0.123_456_789,
            select_group_s: 0.0,
            digest: 0xfedc_ba98_7654_3210,
        };
        let stdout = format!("noise\n{}\n", s.line());
        assert_eq!(SetupSample::parse(&stdout), Some(s));
        for bad in [
            "",
            "setup 1 2",
            "setup x 2 ab",
            "setup 1 2 zz",
            "setup 1 2 ab 3",
        ] {
            assert_eq!(SetupSample::parse(bad), None, "{bad:?}");
        }
    }
}
