//! The four workloads: what each sets up once per run, and the fixed list
//! of studies (one simulation run under one policy) the run starts.
//!
//! Weather and site geography are the fixed dataset, as the paper's
//! ELIA/EMHIRES traces are; `--seed` draws the demand: application arrival
//! streams and VM workloads. Study cost swings by about half from one
//! weather draw to the next, so drawing the weather from the seed would
//! make a run's cost a property of its seed rather than of the code.
//!
//! The list is sized from `--seconds` by a measured study rate, so the
//! same seed and run length always give the same inputs and outputs.

use std::time::Instant;
use vb_core::fleet::{shard_names, FleetPolicy};
use vb_sched::{select_group, AppGenConfig, GroupSimConfig, PipelineConfig, STEPS_PER_DAY};
use vb_trace::Catalog;

/// The Figure 3 trio every `table1` study runs on (the paper's Table 1 group).
pub const TRIO: [&str; 3] = ["NO-solar", "UK-wind", "PT-wind"];

/// Weather of the first `table1` scenario and of the fleet and Europe
/// catalogs: the seed the paper artifacts are generated with.
const WEATHER_SEED: u64 = 42;

/// Sites per fleet shard: the Table 1 multi-VB group size.
const SHARD_SIZE: usize = 3;

/// `fleet_greedy` horizon: `fleet_perf`'s twelve-week fleet configuration.
const FLEET_GREEDY_DAYS: u32 = 84;

/// `fleet_mip` horizon: long enough for day-plus look-ahead models, short
/// enough that a run holds dozens of studies.
const FLEET_MIP_DAYS: u32 = 3;

/// `site_cluster` window: Figure 4's three months, from March, then the
/// following quarters once every Europe site has run.
const SITE_START_DAY: u32 = 60;
const SITE_DAYS: u32 = 90;

/// Table 1 policy cycle: study `k` runs `TABLE1_POLICIES[k % 4]`.
const TABLE1_POLICIES: [FleetPolicy; 4] = [
    FleetPolicy::Greedy,
    FleetPolicy::Mip24h,
    FleetPolicy::Mip,
    FleetPolicy::MipPeak,
];

/// `fleet_mip` policy cycle: the three solver-backed variants.
const FLEET_MIP_POLICIES: [FleetPolicy; 3] =
    [FleetPolicy::Mip24h, FleetPolicy::Mip, FleetPolicy::MipPeak];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    FleetGreedy,
    FleetMip,
    SiteCluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::FleetGreedy,
        Workload::FleetMip,
        Workload::SiteCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::FleetGreedy => "fleet_greedy",
            Workload::FleetMip => "fleet_mip",
            Workload::SiteCluster => "site_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Studies that run once in `seconds`, at the single-thread study rate
    /// measured on a two-vCPU x86-64 container in its slower periods (its
    /// faster ones run a list in about three quarters of the time); at
    /// least one of each policy.
    pub fn studies(self, seconds: f64) -> usize {
        let (per_second, min) = match self {
            Workload::Table1 => (4.2, TABLE1_POLICIES.len()),
            Workload::FleetGreedy => (4.4, 1),
            Workload::FleetMip => (1.1, FLEET_MIP_POLICIES.len()),
            Workload::SiteCluster => (1.7, 1),
        };
        ((seconds * per_second).round() as usize).max(min)
    }
}

/// What one study runs.
#[derive(Debug, Clone)]
pub enum StudyKind {
    /// A multi-VB group simulation under one policy.
    Group {
        sites: Vec<String>,
        cfg: GroupSimConfig,
        policy: FleetPolicy,
    },
    /// One site's VM-level cluster simulation (Figure 4).
    Site {
        site: String,
        start_day: u32,
        days: u32,
        seed: u64,
    },
}

#[derive(Debug, Clone)]
pub struct Study {
    /// Index into [`Prepared::catalogs`].
    pub catalog: usize,
    pub kind: StudyKind,
}

impl Study {
    /// Simulated site-steps: the throughput numerator.
    pub fn site_steps(&self) -> u64 {
        let (sites, days) = match &self.kind {
            StudyKind::Group { sites, cfg, .. } => (sites.len() as u64, cfg.days),
            StudyKind::Site { days, .. } => (1, *days),
        };
        sites * days as u64 * STEPS_PER_DAY as u64
    }
}

/// A workload's inputs, built once per set-up.
pub struct Prepared {
    pub catalogs: Vec<Catalog>,
    pub studies: Vec<Study>,
    /// The pipeline-selected group (Fig 6 steps 1–2), `table1` only.
    pub selected_group: Vec<String>,
    /// Seconds spent in `select_group`.
    pub select_group_s: f64,
}

impl Prepared {
    /// The study set-up runs to warm caches: the list's first, with the
    /// demand it has at `--seed 42` whatever the seed, so that set-up
    /// time is a property of the code rather than of the draw (with the
    /// seed's own draw, `fleet_mip` set-up read 0.24–0.77 s across ten
    /// seeds).
    pub fn warmup(&self) -> Study {
        let demand = base_seed(WEATHER_SEED).wrapping_add(1);
        let mut study = self.studies[0].clone();
        match &mut study.kind {
            StudyKind::Group { cfg, .. } => cfg.seed = demand,
            StudyKind::Site { seed, .. } => *seed = demand,
        }
        study
    }
}

/// `fleet_perf`'s fleet application mix: many tiny, mostly degradable apps
/// at a fixed per-shard arrival rate.
fn fleet_apps() -> AppGenConfig {
    AppGenConfig {
        arrivals_per_step: 4.0,
        vms_min: 1,
        vms_max: 2,
        cores_per_vm: 2,
        degradable_fraction: 0.95,
        ..AppGenConfig::default()
    }
}

/// The run's base demand seed: `seed` through the splitmix64 finalizer.
/// Study `k` then draws its demand from `base + 1 + k`, `run_fleet`'s
/// shard-seed derivation; without the mixing, runs at neighbouring seeds
/// would share all but one of their arrival streams.
fn base_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the catalogs and the `n`-study list; `seed` draws the demand.
pub fn prepare(workload: Workload, seed: u64, n: usize) -> Prepared {
    let base = base_seed(seed);
    let demand = |k: usize| base.wrapping_add(1 + k as u64);
    let mut prepared = Prepared {
        catalogs: Vec::new(),
        studies: Vec::with_capacity(n),
        selected_group: Vec::new(),
        select_group_s: 0.0,
    };
    match workload {
        Workload::Table1 => {
            // Weather year w hosts four studies, one per policy, which
            // build identical traces. Each study draws its own arrival
            // stream: the four policies' costs on one stream move
            // together, so shared streams would leave a quarter as many
            // independent samples of the seed's demand.
            let scenarios = n.div_ceil(TABLE1_POLICIES.len()) as u64;
            prepared.catalogs = (0..scenarios)
                .map(|w| Catalog::europe(WEATHER_SEED + w))
                .collect();
            let t = Instant::now();
            prepared.selected_group =
                select_group(&prepared.catalogs[0], &PipelineConfig::default());
            prepared.select_group_s = t.elapsed().as_secs_f64();
            for k in 0..n {
                prepared.studies.push(Study {
                    catalog: k / TABLE1_POLICIES.len(),
                    kind: StudyKind::Group {
                        sites: TRIO.iter().map(|s| s.to_string()).collect(),
                        cfg: GroupSimConfig {
                            seed: demand(k),
                            ..GroupSimConfig::default()
                        },
                        policy: TABLE1_POLICIES[k % TABLE1_POLICIES.len()],
                    },
                });
            }
        }
        Workload::FleetGreedy | Workload::FleetMip => {
            let catalog = Catalog::fleet(WEATHER_SEED, n * SHARD_SIZE);
            for (i, sites) in shard_names(&catalog, SHARD_SIZE).into_iter().enumerate() {
                let (days, epoch_steps, policy) = if workload == Workload::FleetGreedy {
                    (FLEET_GREEDY_DAYS, STEPS_PER_DAY, FleetPolicy::Greedy)
                } else {
                    let policy = FLEET_MIP_POLICIES[i % FLEET_MIP_POLICIES.len()];
                    (
                        FLEET_MIP_DAYS,
                        GroupSimConfig::default().epoch_steps,
                        policy,
                    )
                };
                prepared.studies.push(Study {
                    catalog: 0,
                    kind: StudyKind::Group {
                        sites,
                        cfg: GroupSimConfig {
                            days,
                            epoch_steps,
                            app_cfg: Some(fleet_apps()),
                            seed: demand(i),
                            ..GroupSimConfig::default()
                        },
                        policy,
                    },
                });
            }
            prepared.catalogs.push(catalog);
        }
        Workload::SiteCluster => {
            let catalog = Catalog::europe(WEATHER_SEED);
            let sites = catalog.len();
            for k in 0..n {
                prepared.studies.push(Study {
                    catalog: 0,
                    kind: StudyKind::Site {
                        site: catalog.sites()[k % sites].name.clone(),
                        start_day: SITE_START_DAY + SITE_DAYS * (k / sites) as u32,
                        days: SITE_DAYS,
                        seed: demand(k),
                    },
                });
            }
            prepared.catalogs.push(catalog);
        }
    }
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbouring_seeds_share_no_demand_stream() {
        let seeds = |seed| -> Vec<u64> {
            prepare(Workload::SiteCluster, seed, 30)
                .studies
                .iter()
                .map(|s| match s.kind {
                    StudyKind::Site { seed, .. } => seed,
                    StudyKind::Group { .. } => unreachable!("site studies only"),
                })
                .collect()
        };
        let (a, b) = (seeds(1), seeds(2));
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(a, seeds(1), "the same seed gives the same inputs");
    }

    #[test]
    fn the_warmup_study_does_not_depend_on_the_seed() {
        let demand = |s: &Study| match &s.kind {
            StudyKind::Group { cfg, .. } => cfg.seed,
            StudyKind::Site { seed, .. } => *seed,
        };
        for w in [Workload::FleetMip, Workload::SiteCluster] {
            let at = |seed| prepare(w, seed, 3);
            let (a, b, default) = (at(1), at(2), at(42));
            assert_ne!(demand(&a.studies[0]), demand(&b.studies[0]));
            assert_eq!(demand(&a.warmup()), demand(&b.warmup()));
            assert_eq!(demand(&default.warmup()), demand(&default.studies[0]));
        }
    }
}
