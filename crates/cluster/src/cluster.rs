//! The single-site cluster simulator.
//!
//! Implements the paper's §3 power-capping cascade at 15-minute
//! granularity:
//!
//! 1. A power drop first "powers down unallocated cores" — free
//!    absorption, no traffic.
//! 2. Still short? *Degradable* VMs hibernate in place (they absorb
//!    variability at no WAN cost — the property the §3.1 scheduler
//!    exploits).
//! 3. Still short? *Stable* VMs are migrated out of servers in
//!    round-robin order; each migration costs the VM's memory in GB of
//!    WAN traffic.
//! 4. A power rise resumes hibernated VMs (no traffic), then launches
//!    previously rejected VMs, which count as migrations *into* the site.
//!
//! Admission control rejects arrivals that would push utilization above
//! the target (70 % in the paper); rejected VMs wait in a pending queue
//! until power returns or their lifetime lapses.

use crate::vm::{Vm, VmId, VmKind, VmRequest, VmState};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cluster sizing and policy knobs. Defaults are the paper's setup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of servers (paper: ≈700).
    pub n_servers: usize,
    /// Cores per server (paper: 40).
    pub cores_per_server: u32,
    /// Memory per server in GB (paper: 512).
    pub mem_per_server_gb: f64,
    /// Admission-control utilization target (paper: 0.70).
    pub target_util: f64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            n_servers: 700,
            cores_per_server: 40,
            mem_per_server_gb: 512.0,
            target_util: 0.70,
        }
    }
}

impl ClusterConfig {
    /// Total cores across all servers.
    pub fn total_cores(&self) -> u32 {
        self.n_servers as u32 * self.cores_per_server
    }
}

/// Per-server bookkeeping.
#[derive(Debug, Clone)]
struct ServerState {
    /// Changed only through [`Cluster::set_free_cores`], which keeps
    /// [`FreeCoreIndex`] in step.
    free_cores: u32,
    free_mem: f64,
    /// Running VMs on this server.
    running: Vec<VmId>,
}

/// Servers grouped by free-core level: one bitset of server indices per
/// level `0..=cores_per_server`, 64 servers to a word. A server's bit is
/// set at exactly one level, its current `free_cores`.
#[derive(Debug, Clone)]
struct FreeCoreIndex {
    words_per_level: usize,
    bits: Vec<u64>,
}

impl FreeCoreIndex {
    /// Every server at level `cores_per_server` (an empty cluster).
    fn new(n_servers: usize, cores_per_server: u32) -> FreeCoreIndex {
        let words_per_level = n_servers.div_ceil(64);
        let levels = cores_per_server as usize + 1;
        let mut index = FreeCoreIndex {
            words_per_level,
            bits: vec![0; levels * words_per_level],
        };
        for s in 0..n_servers {
            index.insert(cores_per_server, s);
        }
        index
    }

    fn level(&self, level: u32) -> &[u64] {
        let start = level as usize * self.words_per_level;
        &self.bits[start..start + self.words_per_level]
    }

    fn insert(&mut self, level: u32, server: usize) {
        self.bits[level as usize * self.words_per_level + server / 64] |= 1 << (server % 64);
    }

    fn remove(&mut self, level: u32, server: usize) {
        self.bits[level as usize * self.words_per_level + server / 64] &= !(1 << (server % 64));
    }
}

/// A stable VM evicted by a power shortfall, ready to be re-placed at
/// another site by the multi-VB scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedVm {
    /// The evicted VM's original request (shape, kind, lifetime).
    pub request: VmRequest,
    /// Absolute step at which the VM's lifetime ends.
    pub departs_at: u64,
}

/// Outcome of one simulation step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Step index (15-minute intervals since simulation start).
    pub step: u64,
    /// Power available this step, as a fraction of full cluster power.
    pub power_frac: f64,
    /// Cores the power budget can keep on.
    pub budget_cores: u32,
    /// Cores allocated to running VMs after the step.
    pub allocated_cores: u32,
    /// allocated / total.
    pub utilization: f64,
    /// GB migrated out (stable evictions) this step.
    pub out_gb: f64,
    /// GB migrated in (pending launches) this step.
    pub in_gb: f64,
    /// Number of VMs migrated out.
    pub migrations_out: usize,
    /// Number of VMs migrated in.
    pub migrations_in: usize,
    /// Degradable VMs hibernated this step.
    pub hibernated: usize,
    /// Hibernated VMs resumed this step.
    pub resumed: usize,
    /// Fresh arrivals admitted directly (no traffic).
    pub admitted: usize,
    /// Fresh arrivals queued by admission control.
    pub queued: usize,
    /// Pending queue length after the step.
    pub pending_len: usize,
}

/// A renewable-powered VB site's compute cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    servers: Vec<ServerState>,
    /// `servers` by free-core level, for best-fit placement.
    free_index: FreeCoreIndex,
    /// Slab of VMs; freed slots are `None`.
    vms: Vec<Option<Vm>>,
    /// Indices of the `None` slots of `vms`, lowest first.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// Rejected requests waiting for power, with their arrival step.
    pending: VecDeque<(VmRequest, u64)>,
    /// Hibernated degradable VMs, oldest first.
    hibernated: VecDeque<VmId>,
    /// Round-robin eviction cursor over servers.
    rr_cursor: usize,
    /// Current step.
    now: u64,
    /// Cores held by running VMs.
    allocated_cores: u32,
    /// Power budget in cores, set by [`Cluster::set_power`].
    budget_cores: u32,
}

impl Cluster {
    /// A fully powered, empty cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let servers = (0..cfg.n_servers)
            .map(|_| ServerState {
                free_cores: cfg.cores_per_server,
                free_mem: cfg.mem_per_server_gb,
                running: Vec::new(),
            })
            .collect();
        let budget = cfg.total_cores();
        Cluster {
            free_index: FreeCoreIndex::new(cfg.n_servers, cfg.cores_per_server),
            cfg,
            servers,
            vms: Vec::new(),
            free_slots: BinaryHeap::new(),
            pending: VecDeque::new(),
            hibernated: VecDeque::new(),
            rr_cursor: 0,
            now: 0,
            allocated_cores: 0,
            budget_cores: budget,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current simulation step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cores allocated to running VMs.
    pub fn allocated_cores(&self) -> u32 {
        self.allocated_cores
    }

    /// Utilization: allocated cores / total cores.
    pub fn utilization(&self) -> f64 {
        self.allocated_cores as f64 / self.cfg.total_cores() as f64
    }

    /// Number of VMs currently running.
    pub fn running_vms(&self) -> usize {
        self.vms
            .iter()
            .flatten()
            .filter(|v| matches!(v.state, VmState::Running(_)))
            .count()
    }

    /// Number of VMs currently hibernated.
    pub fn hibernated_vms(&self) -> usize {
        self.hibernated.len()
    }

    /// Length of the pending (rejected) queue.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Run one full step: advance time, expire VMs, apply the power
    /// budget (evicting if needed), recover capacity, then process fresh
    /// arrivals. Evicted stable VMs are dropped (single-site semantics);
    /// multi-site simulations should instead call the primitives
    /// ([`Cluster::advance`], [`Cluster::set_power`],
    /// [`Cluster::recover`], [`Cluster::admit`]) and re-route evictions.
    pub fn step(&mut self, power_frac: f64, arrivals: &[VmRequest]) -> StepStats {
        let mut stats = StepStats {
            step: self.now,
            power_frac,
            ..StepStats::default()
        };
        self.advance();
        // Single-site semantics: evicted VMs leave the system entirely.
        let _evicted = self.set_power(power_frac, &mut stats);
        self.recover(&mut stats);
        for &req in arrivals {
            let pending_before = self.pending.len();
            if self.admit(req) {
                stats.admitted += 1;
            } else if self.pending.len() > pending_before {
                stats.queued += 1;
            }
        }
        self.finish_stats(&mut stats);
        stats
    }

    /// Advance the clock one step and expire finished VMs (running,
    /// hibernated, and pending).
    pub fn advance(&mut self) {
        self.now += 1;
        let now = self.now;
        // Expire resident VMs.
        for id in 0..self.vms.len() {
            let expired = self.vms[id].as_ref().is_some_and(|vm| vm.expired(now));
            if expired {
                self.remove_vm(VmId(id));
            }
        }
        self.hibernated.retain(|id| {
            // remove_vm above already dropped expired ones from the slab.
            self.vms[id.0].is_some()
        });
        // Expire pending requests whose lifetime has lapsed.
        self.pending
            .retain(|(req, arrived)| arrived + req.lifetime_steps as u64 > now);
    }

    /// Apply a power budget. Returns the stable VMs evicted to satisfy
    /// it; the caller decides where they go (another site, or dropped).
    pub fn set_power(&mut self, power_frac: f64, stats: &mut StepStats) -> Vec<EvictedVm> {
        let budget = (power_frac.clamp(0.0, 1.0) * self.cfg.total_cores() as f64).floor() as u32;
        self.budget_cores = budget;
        stats.budget_cores = budget;

        let mut evicted = Vec::new();
        if self.allocated_cores <= budget {
            return evicted;
        }

        // 1) Hibernate degradable VMs, round-robin over servers.
        self.for_each_rr_victim(budget, true, |cluster, id| {
            cluster.hibernate(id);
            stats.hibernated += 1;
        });

        // 2) Migrate out stable VMs, round-robin over servers.
        if self.allocated_cores > budget {
            let mut out = Vec::new();
            self.for_each_rr_victim(budget, false, |cluster, id| {
                // vb-audit: allow(no-panic, for_each_rr_victim only yields ids of live vm slots)
                let vm = cluster.vms[id.0].as_ref().expect("victim exists");
                out.push(EvictedVm {
                    request: vm.request,
                    departs_at: vm.departs_at,
                });
                stats.out_gb += vm.request.mem_gb;
                stats.migrations_out += 1;
                cluster.remove_vm(id);
            });
            evicted = out;
        }
        evicted
    }

    /// Recover capacity after a power rise: resume hibernated VMs (no
    /// traffic), then launch pending requests — which count as
    /// migrations in (§3).
    pub fn recover(&mut self, stats: &mut StepStats) {
        // Resume hibernated VMs oldest-first while the budget allows.
        while let Some(&id) = self.hibernated.front() {
            let cores = self.vms[id.0]
                .as_ref()
                // vb-audit: allow(no-panic, the hibernated queue holds only live vm slots by construction)
                .expect("hibernated vm exists")
                .request
                .cores;
            if self.allocated_cores + cores > self.budget_cores {
                break;
            }
            if !self.resume(id) {
                break; // no server can host it right now
            }
            self.hibernated.pop_front();
            stats.resumed += 1;
        }

        // Launch pending requests under both the power budget and the
        // admission-control target. The queue is scanned in FIFO order,
        // but an entry that does not fit right now (capacity or
        // fragmentation) must not block smaller entries behind it. A
        // consecutive-failure bound keeps the scan cheap when the queue
        // is long and the capacity exhausted.
        const MAX_CONSECUTIVE_FAILURES: usize = 200;
        let admit_cap = self.admission_cap();
        let mut i = 0usize;
        let mut failures = 0usize;
        while i < self.pending.len() && failures < MAX_CONSECUTIVE_FAILURES {
            if self.allocated_cores >= admit_cap {
                break;
            }
            let (req, arrived) = self.pending[i];
            let fits_cap = self.allocated_cores + req.cores <= admit_cap;
            let departs_at = arrived + req.lifetime_steps as u64;
            if fits_cap && self.place(req, arrived, departs_at).is_some() {
                self.pending.remove(i);
                stats.in_gb += req.mem_gb;
                stats.migrations_in += 1;
                failures = 0;
            } else {
                i += 1;
                failures += 1;
            }
        }
    }

    /// Try to admit a fresh arrival. Returns false (and queues it) when
    /// admission control or the power budget rejects it. Requests that
    /// could never fit any server are dropped outright.
    pub fn admit(&mut self, req: VmRequest) -> bool {
        if req.cores > self.cfg.cores_per_server || req.mem_gb > self.cfg.mem_per_server_gb {
            return false; // can never be hosted here
        }
        if self.allocated_cores + req.cores <= self.admission_cap() {
            let departs_at = self.now + req.lifetime_steps as u64;
            if self.place(req, self.now, departs_at).is_some() {
                return true;
            }
        }
        self.pending.push_back((req, self.now));
        false
    }

    /// Place a VM that is migrating in from another site (multi-VB).
    /// Unlike [`Cluster::admit`] the remaining lifetime is preserved via
    /// `departs_at`. Returns false if it does not fit right now.
    pub fn place_migrated(&mut self, req: VmRequest, departs_at: u64) -> bool {
        if departs_at <= self.now {
            return true; // lifetime already over; nothing to place
        }
        if self.allocated_cores + req.cores > self.admission_cap() {
            return false;
        }
        self.place(req, self.now, departs_at).is_some()
    }

    /// Cores admissible under the admission-control target: 70 % of the
    /// *currently powered* capacity. Keeping headroom relative to the
    /// power budget is what lets "minor variations in power [be]
    /// absorbed by simply powering down un-allocated cores" (§3) even at
    /// sites that rarely reach nameplate output.
    fn admission_cap(&self) -> u32 {
        (self.cfg.target_util * self.budget_cores as f64).floor() as u32
    }

    fn finish_stats(&self, stats: &mut StepStats) {
        stats.allocated_cores = self.allocated_cores;
        stats.utilization = self.utilization();
        stats.pending_len = self.pending.len();
    }

    /// Best-fit placement: the powered server with the fewest free cores
    /// that still fits the request (Protean-style tight packing).
    fn place(&mut self, req: VmRequest, arrived_at: u64, departs_at: u64) -> Option<VmId> {
        let server = self.best_fit(req.cores, req.mem_gb)?;
        let id = self.alloc_slot(Vm {
            request: req,
            state: VmState::Running(server),
            arrived_at,
            departs_at,
        });
        self.set_free_cores(server, self.servers[server].free_cores - req.cores);
        self.servers[server].free_mem -= req.mem_gb;
        self.servers[server].running.push(id);
        self.allocated_cores += req.cores;
        Some(id)
    }

    /// The server with the fewest free cores among those with at least
    /// `cores` free cores and `mem_gb` free memory, the lowest index on
    /// ties. Levels are searched upward from `cores` and each level's
    /// servers in index order, so the first server with the memory is
    /// the answer.
    fn best_fit(&self, cores: u32, mem_gb: f64) -> Option<usize> {
        for level in cores..=self.cfg.cores_per_server {
            for (w, &word) in self.free_index.level(level).iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let s = w * 64 + rest.trailing_zeros() as usize;
                    if self.servers[s].free_mem >= mem_gb {
                        return Some(s);
                    }
                    rest &= rest - 1;
                }
            }
        }
        None
    }

    /// Set server `s`'s free cores and move it to that level of the index.
    fn set_free_cores(&mut self, s: usize, free_cores: u32) {
        self.free_index.remove(self.servers[s].free_cores, s);
        self.free_index.insert(free_cores, s);
        self.servers[s].free_cores = free_cores;
    }

    /// Store `vm` in the lowest empty slab slot, or a new one.
    fn alloc_slot(&mut self, vm: Vm) -> VmId {
        if let Some(Reverse(idx)) = self.free_slots.pop() {
            self.vms[idx] = Some(vm);
            VmId(idx)
        } else {
            self.vms.push(Some(vm));
            VmId(self.vms.len() - 1)
        }
    }

    /// Remove a VM entirely (expiry or migration out).
    fn remove_vm(&mut self, id: VmId) {
        let Some(vm) = self.vms[id.0].take() else {
            return;
        };
        self.free_slots.push(Reverse(id.0));
        match vm.state {
            VmState::Running(s) => {
                self.set_free_cores(s, self.servers[s].free_cores + vm.request.cores);
                self.servers[s].free_mem += vm.request.mem_gb;
                self.servers[s].running.retain(|&v| v != id);
                self.allocated_cores -= vm.request.cores;
            }
            VmState::Hibernated(s) => {
                self.servers[s].free_mem += vm.request.mem_gb;
                // Hibernated VMs hold no cores.
            }
        }
    }

    /// Hibernate a running degradable VM in place: cores freed, memory
    /// retained on the server.
    fn hibernate(&mut self, id: VmId) {
        // vb-audit: allow(no-panic, callers pass ids taken from live server run-lists)
        let vm = self.vms[id.0].as_mut().expect("vm exists");
        let VmState::Running(s) = vm.state else {
            return;
        };
        vm.state = VmState::Hibernated(s);
        let cores = vm.request.cores;
        self.set_free_cores(s, self.servers[s].free_cores + cores);
        self.servers[s].running.retain(|&v| v != id);
        self.allocated_cores -= cores;
        self.hibernated.push_back(id);
    }

    /// Resume a hibernated VM, preferring its home server and falling
    /// back to any powered server (an intra-site move, no WAN traffic).
    fn resume(&mut self, id: VmId) -> bool {
        let (req, home) = {
            // vb-audit: allow(no-panic, callers pass ids taken from the live hibernated queue)
            let vm = self.vms[id.0].as_ref().expect("vm exists");
            let VmState::Hibernated(s) = vm.state else {
                return false;
            };
            (vm.request, s)
        };
        let target = if self.servers[home].free_cores >= req.cores {
            Some(home)
        } else {
            self.best_fit(req.cores, req.mem_gb)
        };
        let Some(target) = target else {
            return false;
        };
        if target != home {
            self.servers[home].free_mem += req.mem_gb;
            self.servers[target].free_mem -= req.mem_gb;
        }
        // vb-audit: allow(no-panic, id was checked against a live slot at the top of resume)
        let vm = self.vms[id.0].as_mut().expect("vm exists");
        vm.state = VmState::Running(target);
        self.set_free_cores(target, self.servers[target].free_cores - req.cores);
        self.servers[target].running.push(id);
        self.allocated_cores += req.cores;
        true
    }

    /// Visit running VMs in round-robin order over servers (one victim
    /// per server visit), calling `evict` until the allocation fits the
    /// budget or no candidate remains. `degradable_only` selects the
    /// hibernation pass vs the migration pass.
    fn for_each_rr_victim(
        &mut self,
        budget: u32,
        degradable_only: bool,
        mut evict: impl FnMut(&mut Cluster, VmId),
    ) {
        let n = self.servers.len();
        let mut visited_without_victim = 0usize;
        while self.allocated_cores > budget && visited_without_victim < n {
            let s = self.rr_cursor % n;
            self.rr_cursor = (self.rr_cursor + 1) % n;
            let victim = self.servers[s].running.iter().rev().copied().find(|id| {
                // vb-audit: allow(no-panic, server run-lists reference only live vm slots)
                let vm = self.vms[id.0].as_ref().expect("listed vm exists");
                degradable_only == (vm.request.kind == VmKind::Degradable)
            });
            match victim {
                Some(id) => {
                    evict(self, id);
                    visited_without_victim = 0;
                }
                None => visited_without_victim += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            n_servers: 4,
            cores_per_server: 10,
            mem_per_server_gb: 100.0,
            target_util: 0.7,
        }
    }

    fn stats() -> StepStats {
        StepStats::default()
    }

    #[test]
    fn admission_respects_utilization_target() {
        // 40 cores total, 70% target -> 28 cores admissible.
        let mut c = Cluster::new(small_cfg());
        for _ in 0..7 {
            assert!(c.admit(VmRequest::stable(4, 16.0, 100)));
        }
        assert_eq!(c.allocated_cores(), 28);
        assert!(
            !c.admit(VmRequest::stable(4, 16.0, 100)),
            "29th core rejected"
        );
        assert_eq!(c.pending_len(), 1);
    }

    #[test]
    fn placement_is_best_fit() {
        let mut c = Cluster::new(small_cfg());
        // Fill server A with 8 cores, leaving 2 free.
        assert!(c.admit(VmRequest::stable(8, 32.0, 100)));
        // A 2-core VM should land on the same (tightest) server.
        assert!(c.admit(VmRequest::stable(2, 8.0, 100)));
        let used_servers = c.servers.iter().filter(|s| s.free_cores < 10).count();
        assert_eq!(used_servers, 1, "best-fit should consolidate");
    }

    #[test]
    fn power_drop_powers_down_unallocated_cores_first() {
        let mut c = Cluster::new(small_cfg());
        c.admit(VmRequest::stable(10, 40.0, 100));
        let mut st = stats();
        // Power down to 50% (20 cores) with only 10 allocated: no
        // migrations, absorbed by unallocated cores.
        let evicted = c.set_power(0.5, &mut st);
        assert!(evicted.is_empty());
        assert_eq!(st.migrations_out, 0);
        assert_eq!(c.allocated_cores(), 10);
    }

    #[test]
    fn deep_power_drop_migrates_stable_vms() {
        let mut c = Cluster::new(small_cfg());
        for _ in 0..4 {
            c.admit(VmRequest::stable(5, 20.0, 100));
        }
        assert_eq!(c.allocated_cores(), 20);
        let mut st = stats();
        // 25% power = 10 cores: two 5-core VMs must leave.
        let evicted = c.set_power(0.25, &mut st);
        assert_eq!(evicted.len(), 2);
        assert_eq!(st.migrations_out, 2);
        assert!((st.out_gb - 40.0).abs() < 1e-9, "2 × 20 GB memory");
        assert_eq!(c.allocated_cores(), 10);
    }

    #[test]
    fn degradable_vms_hibernate_before_stable_vms_migrate() {
        let mut c = Cluster::new(small_cfg());
        c.admit(VmRequest::stable(5, 20.0, 100));
        c.admit(VmRequest::degradable(5, 20.0, 100));
        c.admit(VmRequest::degradable(5, 20.0, 100));
        let mut st = stats();
        // Budget 10 cores; shortfall of 5: one degradable hibernates.
        let evicted = c.set_power(0.25, &mut st);
        assert!(evicted.is_empty(), "no stable migration needed");
        assert_eq!(st.hibernated, 1);
        assert_eq!(c.hibernated_vms(), 1);
        assert_eq!(c.allocated_cores(), 10);
        // Budget 5 cores: hibernating the second degradable exactly fits
        // the stable VM — still no migration.
        let mut st2 = stats();
        let evicted2 = c.set_power(0.125, &mut st2);
        assert_eq!(st2.hibernated, 1);
        assert!(evicted2.is_empty());
        assert_eq!(c.allocated_cores(), 5);
        // Power to zero: now the stable VM must migrate out.
        let mut st3 = stats();
        let evicted3 = c.set_power(0.0, &mut st3);
        assert_eq!(evicted3.len(), 1);
        assert_eq!(evicted3[0].request.kind, VmKind::Stable);
        assert_eq!(c.allocated_cores(), 0);
    }

    #[test]
    fn power_recovery_resumes_then_launches_pending() {
        let mut c = Cluster::new(small_cfg());
        c.admit(VmRequest::degradable(5, 20.0, 100));
        let mut st = stats();
        c.set_power(0.0, &mut st);
        assert_eq!(c.hibernated_vms(), 1);
        // Queue a fresh arrival while dark.
        assert!(!c.admit(VmRequest::stable(4, 16.0, 100)));
        // Power returns fully.
        let mut st2 = stats();
        let ev = c.set_power(1.0, &mut st2);
        assert!(ev.is_empty());
        c.recover(&mut st2);
        assert_eq!(st2.resumed, 1, "hibernated VM resumes free of charge");
        assert_eq!(
            st2.migrations_in, 1,
            "pending launch counts as migration in"
        );
        assert!((st2.in_gb - 16.0).abs() < 1e-9);
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn expired_vms_release_resources() {
        let mut c = Cluster::new(small_cfg());
        c.admit(VmRequest::stable(4, 16.0, 2));
        assert_eq!(c.allocated_cores(), 4);
        c.advance(); // now = 1
        assert_eq!(c.allocated_cores(), 4);
        c.advance(); // now = 2 = departs_at
        assert_eq!(c.allocated_cores(), 0);
        assert_eq!(c.running_vms(), 0);
    }

    #[test]
    fn pending_requests_expire_with_their_lifetime() {
        let mut c = Cluster::new(small_cfg());
        let mut st = stats();
        c.set_power(0.0, &mut st);
        assert!(!c.admit(VmRequest::stable(1, 4.0, 3)));
        assert_eq!(c.pending_len(), 1);
        for _ in 0..3 {
            c.advance();
        }
        assert_eq!(c.pending_len(), 0, "expired pending request dropped");
    }

    #[test]
    fn place_migrated_preserves_departure_time() {
        let mut c = Cluster::new(small_cfg());
        assert!(c.place_migrated(VmRequest::stable(2, 8.0, 100), 3));
        assert_eq!(c.allocated_cores(), 2);
        c.advance();
        c.advance();
        c.advance(); // now = 3: VM departs
        assert_eq!(c.allocated_cores(), 0);
    }

    #[test]
    fn place_migrated_rejects_over_cap() {
        let mut c = Cluster::new(small_cfg());
        // Admission cap is 28 cores.
        assert!(
            !c.place_migrated(VmRequest::stable(28, 100.0, 100), 1_000),
            "a single 28-core VM cannot fit a 10-core server"
        );
        assert!(c.place_migrated(VmRequest::stable(10, 40.0, 1_000), 1_000));
        assert!(c.place_migrated(VmRequest::stable(10, 40.0, 1_000), 1_000));
        assert!(
            !c.place_migrated(VmRequest::stable(10, 40.0, 1_000), 1_000),
            "30 cores would exceed the 28-core admission cap"
        );
    }

    #[test]
    fn full_step_composes_the_cascade() {
        let mut c = Cluster::new(small_cfg());
        let arrivals: Vec<VmRequest> = (0..5).map(|_| VmRequest::stable(4, 16.0, 50)).collect();
        let st = c.step(1.0, &arrivals);
        assert_eq!(st.admitted, 5);
        assert_eq!(st.queued, 0);
        assert_eq!(st.allocated_cores, 20);
        assert!((st.utilization - 0.5).abs() < 1e-9);
        // Night: power to zero evicts everything.
        let st2 = c.step(0.0, &[]);
        assert_eq!(st2.migrations_out, 5);
        assert!((st2.out_gb - 80.0).abs() < 1e-9);
        assert_eq!(st2.allocated_cores, 0);
    }

    #[test]
    fn budget_tracks_power_fraction() {
        let mut c = Cluster::new(small_cfg());
        let mut st = stats();
        c.set_power(0.33, &mut st);
        assert_eq!(st.budget_cores, 13); // floor(0.33 * 40)
        c.set_power(2.0, &mut st);
        assert_eq!(st.budget_cores, 40, "clamped to full power");
    }

    #[test]
    fn resource_accounting_stays_consistent() {
        // Run a random-ish sequence and check the server-level invariant.
        let mut c = Cluster::new(small_cfg());
        let power = [1.0, 0.6, 0.1, 0.0, 0.4, 0.9, 1.0, 0.2];
        for (i, &p) in power.iter().enumerate() {
            let arrivals: Vec<VmRequest> = (0..3)
                .map(|k| {
                    if (i + k) % 2 == 0 {
                        VmRequest::stable(2 + (k as u32 % 3), 8.0, 4 + k as u32)
                    } else {
                        VmRequest::degradable(1 + (k as u32 % 4), 6.0, 6)
                    }
                })
                .collect();
            c.step(p, &arrivals);
            let used: u32 = c
                .servers
                .iter()
                .map(|s| c.cfg.cores_per_server - s.free_cores)
                .sum();
            assert_eq!(used, c.allocated_cores(), "core accounting at step {i}");
            assert!(c.allocated_cores() <= c.budget_cores, "budget respected");
            for s in &c.servers {
                assert!(s.free_mem >= -1e-9, "memory over-committed");
            }
        }
    }

    #[test]
    fn arrivals_wider_than_any_server_are_dropped_not_queued() {
        let mut c = Cluster::new(ClusterConfig {
            n_servers: 4,
            cores_per_server: 16,
            mem_per_server_gb: 128.0,
            target_util: 0.7,
        });
        let st = c.step(1.0, &[VmRequest::stable(24, 96.0, 10)]);
        assert_eq!(st.admitted, 0);
        assert_eq!(
            st.queued, 0,
            "a request no server can host never enters the queue"
        );
        assert_eq!(st.pending_len, 0);
    }

    #[test]
    fn resume_falls_back_to_best_fit_when_home_server_filled_up() {
        let mut c = Cluster::new(ClusterConfig {
            n_servers: 3,
            cores_per_server: 10,
            mem_per_server_gb: 100.0,
            target_util: 1.0,
        });
        assert!(c.admit(VmRequest::degradable(4, 8.0, 100))); // server 0
        assert!(c.admit(VmRequest::stable(6, 12.0, 100))); // server 0, now full
        assert!(c.admit(VmRequest::stable(3, 6.0, 100))); // server 1
        let mut st = stats();
        c.set_power(0.4, &mut st); // 12 of 13 cores powered
        assert_eq!(st.hibernated, 1, "the degradable VM frees server 0's cores");
        // Best fit hands server 0's freed cores to a new VM meanwhile.
        assert!(c.admit(VmRequest::stable(3, 6.0, 100)));
        assert_eq!(c.servers[0].free_cores, 1);
        let mut st2 = stats();
        c.set_power(1.0, &mut st2);
        c.recover(&mut st2);
        assert_eq!(st2.resumed, 1);
        // Server 1 (7 free) is a tighter fit than server 2 (10 free).
        let vm = c.vms[0].as_ref().expect("the degradable VM is live");
        assert_eq!(vm.state, VmState::Running(1));
        assert_eq!(c.servers[1].free_cores, 3);
        assert!(
            (c.servers[0].free_mem - 82.0).abs() < 1e-9,
            "memory left home"
        );
        assert!(
            (c.servers[1].free_mem - 86.0).abs() < 1e-9,
            "and moved along"
        );
    }

    /// The linear scan the free-core index replaced, kept as the oracle
    /// for `best_fit`.
    fn linear_best_fit(c: &Cluster, cores: u32, mem_gb: f64) -> Option<usize> {
        c.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.free_cores >= cores && s.free_mem >= mem_gb)
            .min_by_key(|(_, s)| s.free_cores)
            .map(|(i, _)| i)
    }

    fn assert_indexes_match_scans(c: &Cluster) {
        for (s, server) in c.servers.iter().enumerate() {
            for level in 0..=c.cfg.cores_per_server {
                let listed = (c.free_index.level(level)[s / 64] >> (s % 64)) & 1 == 1;
                assert_eq!(
                    listed,
                    level == server.free_cores,
                    "server {s}, level {level}"
                );
            }
        }
        let full = c.cfg.mem_per_server_gb;
        for cores in 1..=c.cfg.cores_per_server {
            for mem_gb in [0.0, 8.0, 40.0, full / 2.0, full] {
                assert_eq!(
                    c.best_fit(cores, mem_gb),
                    linear_best_fit(c, cores, mem_gb),
                    "best fit for {cores} cores, {mem_gb} GB"
                );
            }
        }
        let mut free_slots: Vec<usize> = c.free_slots.iter().map(|&Reverse(i)| i).collect();
        free_slots.sort_unstable();
        let empty: Vec<usize> = (0..c.vms.len()).filter(|&i| c.vms[i].is_none()).collect();
        assert_eq!(free_slots, empty, "free-slot heap vs empty slab slots");
        // A new VM takes the lowest empty slot, or a new one at the end.
        let lowest_empty = c.vms.iter().position(Option::is_none);
        let mut probe = c.clone();
        let id = probe.alloc_slot(Vm {
            request: VmRequest::stable(1, 1.0, 1),
            state: VmState::Running(0),
            arrived_at: 0,
            departs_at: 1,
        });
        assert_eq!(id.0, lowest_empty.unwrap_or(c.vms.len()), "allocated slot");
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn arb_request() -> impl Strategy<Value = VmRequest> {
            (1u32..=40, 1u32..=16, 1u32..=120, proptest::bool::ANY).prop_map(
                |(cores, mem, lifetime, stable)| {
                    let mem_gb = mem as f64 * 4.0;
                    if stable {
                        VmRequest::stable(cores, mem_gb, lifetime)
                    } else {
                        VmRequest::degradable(cores, mem_gb, lifetime)
                    }
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn indexes_match_linear_scans_after_every_step(
                steps in proptest::collection::vec(
                    (0.0..=1.0f64, proptest::collection::vec(arb_request(), 0..24)),
                    1..40,
                ),
            ) {
                // Server counts on both sides of the 64-server word
                // boundary. At 64 GB a few hibernated VMs keep a server's
                // memory while freeing its cores, so best fit must skip
                // servers that have the cores but not the memory.
                for n_servers in [10, 64, 65, 130] {
                    for mem_per_server_gb in [512.0, 64.0] {
                        let mut c = Cluster::new(ClusterConfig {
                            n_servers,
                            cores_per_server: 40,
                            mem_per_server_gb,
                            target_util: 0.7,
                        });
                        assert_indexes_match_scans(&c);
                        for (power, arrivals) in &steps {
                            c.step(*power, arrivals);
                            assert_indexes_match_scans(&c);
                        }
                    }
                }
            }
        }
    }
}
