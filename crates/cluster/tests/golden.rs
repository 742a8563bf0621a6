//! Golden digests of the cluster simulator.
//!
//! `simulate_paper_site` must stay bit-identical across refactors and
//! performance work on the cluster simulator: each constant below is an
//! FNV-1a hash over the bit patterns of every `StepStats` field of one
//! run. The three paper-site digests were recorded before the placement
//! index replaced the linear scans; they run Figure 4's all-stable
//! workload. The degradable digest was recorded before the departure
//! wheel and the eviction-candidate index replaced the expiry sweep and
//! the full round-robin cycles: it pins the hibernation pass, resume and
//! the multi-site primitives, which no all-stable run reaches.
//! A digest mismatch means some output moved — a changed placement,
//! eviction order or rounding — not just a changed speed.

use vb_cluster::cluster::EvictedVm;
use vb_cluster::{
    simulate, simulate_paper_site, Cluster, ClusterConfig, StepStats, VmKind, Workload,
    WorkloadConfig,
};
use vb_trace::{Catalog, STEPS_PER_DAY, TRIO};

const START_DAY: u32 = 60;
const DAYS: u32 = 14;
const SEED: u64 = 42;

/// FNV-1a over 64-bit words, byte by byte (little-endian).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn step_words(s: &StepStats) -> [u64; 14] {
    [
        s.step,
        s.power_frac.to_bits(),
        s.budget_cores as u64,
        s.allocated_cores as u64,
        s.utilization.to_bits(),
        s.out_gb.to_bits(),
        s.in_gb.to_bits(),
        s.migrations_out as u64,
        s.migrations_in as u64,
        s.hibernated as u64,
        s.resumed as u64,
        s.admitted as u64,
        s.queued as u64,
        s.pending_len as u64,
    ]
}

fn evicted_words(e: &EvictedVm) -> [u64; 5] {
    [
        e.request.cores as u64,
        e.request.mem_gb.to_bits(),
        (e.request.kind == VmKind::Degradable) as u64,
        e.request.lifetime_steps as u64,
        e.departs_at,
    ]
}

fn site_digest(site: &str) -> u64 {
    let power = Catalog::europe(SEED).trace(site, START_DAY, DAYS);
    let out = simulate_paper_site(&power, SEED);
    assert_eq!(out.steps.len(), power.values.len());
    fnv1a(out.steps.iter().flat_map(step_words))
}

/// `simulate_paper_site`'s workload sizing for `cfg` under a power trace
/// with mean `mean_power`, half of it degradable.
fn degradable_workload(cfg: &ClusterConfig, mean_power: f64) -> WorkloadConfig {
    let mean_powered_cores = (cfg.total_cores() as f64 * mean_power) as u32;
    WorkloadConfig::for_cluster(mean_powered_cores.max(1), cfg.target_util)
        .with_degradable_fraction(0.5)
}

#[test]
fn no_solar_site_matches_golden_digest() {
    assert_eq!(
        site_digest("NO-solar"),
        0x118a_8ce8_96ad_6e64,
        "NO-solar digest"
    );
}

#[test]
fn uk_wind_site_matches_golden_digest() {
    assert_eq!(
        site_digest("UK-wind"),
        0xd19b_661c_7ebe_6bf8,
        "UK-wind digest"
    );
}

#[test]
fn pt_wind_site_matches_golden_digest() {
    assert_eq!(
        site_digest("PT-wind"),
        0xff2a_8fc9_fbd7_3eab,
        "PT-wind digest"
    );
}

/// The three paper sites with half the workload degradable, then two
/// 100-server clusters that hand their evictions to each other through
/// the multi-site primitives.
#[test]
fn degradable_sites_and_primitives_match_golden_digest() {
    let catalog = Catalog::europe(SEED);
    let mut words = Vec::new();
    let mut hibernated = 0usize;
    for site in TRIO {
        let power = catalog.trace(site, START_DAY, DAYS);
        let cfg = ClusterConfig::default();
        let workload = degradable_workload(&cfg, vb_stats::mean(&power.values));
        let out = simulate(cfg, &power, workload, 2 * STEPS_PER_DAY, SEED).expect("valid workload");
        assert_eq!(out.steps.len(), power.values.len());
        hibernated += out.steps.iter().map(|s| s.hibernated).sum::<usize>();
        words.extend(out.steps.iter().flat_map(step_words));
    }
    assert!(hibernated > 0, "the degradable pass must run");

    let cfg = ClusterConfig {
        n_servers: 100,
        ..ClusterConfig::default()
    };
    let power = ["UK-wind", "PT-solar"].map(|site| catalog.trace(site, START_DAY, DAYS));
    let mut sites: Vec<(Cluster, Workload)> = power
        .iter()
        .zip(0u64..)
        .map(|(p, i)| {
            let workload = degradable_workload(&cfg, vb_stats::mean(&p.values));
            let mut w = Workload::new(workload, SEED + i);
            let mut c = Cluster::new(cfg.clone());
            // Steady-state residuals reach far past any near-term step.
            for (req, residual) in w.steady_state_population() {
                words.push(c.place_migrated(req, residual as u64) as u64);
            }
            (c, w)
        })
        .collect();
    let (mut evictions, mut resumed) = (0usize, 0usize);
    for t in 0..power[0].values.len() {
        let mut stats: Vec<StepStats> = sites
            .iter_mut()
            .zip(&power)
            .map(|((c, _), p)| {
                let step = c.now();
                c.advance();
                StepStats {
                    step,
                    power_frac: p.values[t],
                    ..StepStats::default()
                }
            })
            .collect();
        let evicted: Vec<Vec<EvictedVm>> = sites
            .iter_mut()
            .zip(&mut stats)
            .map(|((c, _), st)| c.set_power(st.power_frac, st))
            .collect();
        // Each site offers its evictions to the other; what does not fit
        // leaves the system.
        for (from, list) in evicted.iter().enumerate() {
            let (to, _) = &mut sites[1 - from];
            for e in list {
                evictions += 1;
                words.extend(evicted_words(e));
                words.push(to.place_migrated(e.request, e.departs_at) as u64);
            }
        }
        for ((c, w), st) in sites.iter_mut().zip(&mut stats) {
            c.recover(st);
            resumed += st.resumed;
            for req in w.step() {
                let pending_before = c.pending_len();
                if c.admit(req) {
                    st.admitted += 1;
                } else if c.pending_len() > pending_before {
                    st.queued += 1;
                }
            }
            st.allocated_cores = c.allocated_cores();
            st.utilization = c.utilization();
            st.pending_len = c.pending_len();
            words.extend(step_words(st));
            words.push(c.hibernated_vms() as u64);
        }
    }
    assert!(evictions > 0, "the sites must exchange evictions");
    assert!(resumed > 0, "hibernated VMs must resume");

    assert_eq!(
        fnv1a(words),
        0x4889_dddc_64a2_1bdc,
        "degradable/primitives digest"
    );
}
