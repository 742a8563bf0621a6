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
use std::collections::{BTreeMap, VecDeque};

/// Cluster sizing and policy knobs. Defaults are the paper's setup.
#[derive(Debug, Clone)]
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
    /// Running VMs on this server in the order they started running: a
    /// shadow of [`RunLists`], kept by [`Cluster::push_running`] and
    /// [`Cluster::drop_running`] for the tests to check it against.
    #[cfg(test)]
    running: Vec<VmId>,
}

/// Index of a VM kind in the per-kind tables.
fn kind_slot(kind: VmKind) -> usize {
    match kind {
        VmKind::Stable => 0,
        VmKind::Degradable => 1,
    }
}

/// The lowest set bit at or after `from` in a bitset of servers, else
/// the lowest set bit before it: the next server in round-robin order.
fn next_set_cyclic(bits: &[u64], from: usize) -> Option<usize> {
    let w0 = from / 64;
    let ahead = bits.get(w0)? & (!0u64 << (from % 64));
    if ahead != 0 {
        return Some(w0 * 64 + ahead.trailing_zeros() as usize);
    }
    (w0 + 1..bits.len())
        .chain(0..=w0)
        .find(|&w| bits[w] != 0)
        .map(|w| w * 64 + bits[w].trailing_zeros() as usize)
}

/// Servers grouped by free-core level: one bitset of server indices per
/// level `0..=cores_per_server`, 64 servers to a word. A server's bit is
/// set at exactly one level, its current `free_cores`.
#[derive(Debug, Clone)]
struct FreeCoreIndex {
    words_per_level: usize,
    bits: Vec<u64>,
    /// Servers at each level, so best fit skips the empty ones.
    len: Vec<u32>,
}

impl FreeCoreIndex {
    /// Every server at level `cores_per_server` (an empty cluster).
    fn new(n_servers: usize, cores_per_server: u32) -> FreeCoreIndex {
        let words_per_level = n_servers.div_ceil(64);
        let levels = cores_per_server as usize + 1;
        let mut index = FreeCoreIndex {
            words_per_level,
            bits: vec![0; levels * words_per_level],
            len: vec![0; levels],
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
        self.len[level as usize] += 1;
    }

    fn remove(&mut self, level: u32, server: usize) {
        self.bits[level as usize * self.words_per_level + server / 64] &= !(1 << (server % 64));
        self.len[level as usize] -= 1;
    }
}

/// The empty slots of the VM slab: a bitset, 64 slots to a word, that
/// yields the lowest. Every word below `first` is zero, so the lowest
/// empty slot is the first set bit from word `first` on.
#[derive(Debug, Clone, Default)]
struct FreeSlots {
    words: Vec<u64>,
    first: usize,
}

impl FreeSlots {
    /// Mark `slot` empty.
    fn insert(&mut self, slot: usize) {
        let w = slot / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (slot % 64);
        self.first = self.first.min(w);
    }

    /// Take the lowest empty slot, if any.
    fn pop_lowest(&mut self) -> Option<usize> {
        while let Some(word) = self.words.get_mut(self.first) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.first * 64 + bit);
            }
            self.first += 1;
        }
        None
    }
}

/// The step at which [`Cluster::advance`] expires a VM departing at
/// `departs_at`, seen at step `now`: its departure, or the next step for
/// a VM whose lifetime is already over (a zero-lifetime arrival).
/// [`Cluster::advance`] expires VMs before it moves the clock, so this
/// stays a live VM's due step from placement to removal.
fn due_step(departs_at: u64, now: u64) -> u64 {
    departs_at.max(now + 1)
}

/// End of a [`DepartureWheel`] list.
const NIL: u32 = u32::MAX;

/// Longest span, in steps, the departure wheel and the pending queue's
/// due counts widen to. A VM due farther ahead shares its wheel bucket
/// with nearer ones and is passed over until its own step comes round; a
/// pending request due farther ahead is counted apart until its step
/// comes within the span.
const MAX_WHEEL_SPAN: u64 = 1 << 16;

/// Live VMs by the step they expire at, so [`Cluster::advance`] visits
/// only the VMs due. A circular wheel of `heads.len()` buckets (zero or
/// a power of two), each a doubly linked list threaded through the slab
/// slots: a VM due at step `t` is listed in bucket `t % heads.len()`.
/// The wheel widens to the longest remaining lifetime placed (up to
/// [`MAX_WHEEL_SPAN`]), so a bucket normally holds one step's VMs. It
/// holds one link pair per slab slot and one head per bucket, and lists
/// every VM, running or hibernated, from placement to removal.
#[derive(Debug, Clone, Default)]
struct DepartureWheel {
    heads: Vec<u32>,
    /// `(prev, next)` of each slab slot in its bucket's list.
    links: Vec<(u32, u32)>,
}

impl DepartureWheel {
    fn bucket(&self, due: u64) -> usize {
        (due & (self.heads.len() as u64 - 1)) as usize
    }

    /// List `slot`, due at step `due`. `due_of` gives the due step of
    /// every slot already listed, for relisting when the wheel widens.
    fn insert(&mut self, slot: usize, due: u64, now: u64, due_of: impl Fn(usize) -> u64) {
        let span = (due - now).min(MAX_WHEEL_SPAN);
        if span > self.heads.len() as u64 {
            self.widen(span.next_power_of_two() as usize, due_of);
        }
        if slot >= self.links.len() {
            self.links.resize(slot + 1, (NIL, NIL));
        }
        self.link(slot, due);
    }

    fn link(&mut self, slot: usize, due: u64) {
        let b = self.bucket(due);
        let head = self.heads[b];
        // Slab slots stay far below u32::MAX: each holds a VM.
        self.links[slot] = (NIL, head);
        if head != NIL {
            self.links[head as usize].0 = slot as u32;
        }
        self.heads[b] = slot as u32;
    }

    /// Unlink `slot`, listed at step `due`.
    fn remove(&mut self, slot: usize, due: u64) {
        let (prev, next) = self.links[slot];
        if prev == NIL {
            let b = self.bucket(due);
            self.heads[b] = next;
        } else {
            self.links[prev as usize].1 = next;
        }
        if next != NIL {
            self.links[next as usize].0 = prev;
        }
    }

    /// Append the slots listed in step `due`'s bucket to `out`: the VMs
    /// due then, and any due a whole number of wheel turns later.
    fn listed_at(&self, due: u64, out: &mut Vec<usize>) {
        if self.heads.is_empty() {
            return;
        }
        let mut s = self.heads[self.bucket(due)];
        while s != NIL {
            out.push(s as usize);
            s = self.links[s as usize].1;
        }
    }

    /// Relist every slot in a wheel of `len` buckets.
    fn widen(&mut self, len: usize, due_of: impl Fn(usize) -> u64) {
        let old = std::mem::replace(&mut self.heads, vec![NIL; len]);
        for head in old {
            let mut s = head;
            while s != NIL {
                let next = self.links[s as usize].1;
                self.link(s as usize, due_of(s as usize));
                s = next;
            }
        }
    }
}

/// Each server's running VMs of each kind, in the order they started
/// running there: one doubly linked list per server and kind, threaded
/// through the slab slots as [`DepartureWheel`] threads its buckets. A
/// VM joins its list's tail when placed or resumed and is unlinked when
/// it leaves or hibernates, so the tail is the last of that kind to have
/// started on the server, the round-robin eviction victim.
#[derive(Debug, Clone)]
struct RunLists {
    /// Per server, the tail of each kind's list (by [`kind_slot`]), or
    /// [`NIL`] when the server runs no VM of that kind.
    tails: Vec<[u32; 2]>,
    /// `(prev, next)` of each slab slot in its list, toward the head and
    /// the tail.
    links: Vec<(u32, u32)>,
}

impl RunLists {
    fn new(n_servers: usize) -> RunLists {
        RunLists {
            tails: vec![[NIL; 2]; n_servers],
            links: Vec::new(),
        }
    }

    /// Append `slot` to server `s`'s list of kind slot `k`.
    fn push(&mut self, s: usize, k: usize, slot: usize) {
        if slot >= self.links.len() {
            self.links.resize(slot + 1, (NIL, NIL));
        }
        let tail = self.tails[s][k];
        self.links[slot] = (tail, NIL);
        if tail != NIL {
            self.links[tail as usize].1 = slot as u32;
        }
        self.tails[s][k] = slot as u32;
    }

    /// Unlink `slot` from server `s`'s list of kind slot `k`. True when
    /// that list is now empty.
    fn remove(&mut self, s: usize, k: usize, slot: usize) -> bool {
        let (prev, next) = self.links[slot];
        if next == NIL {
            self.tails[s][k] = prev;
        } else {
            self.links[next as usize].0 = prev;
        }
        if prev != NIL {
            self.links[prev as usize].1 = next;
        }
        self.tails[s][k] == NIL
    }

    /// The tail of server `s`'s list of kind slot `k`.
    fn last(&self, s: usize, k: usize) -> Option<usize> {
        let tail = self.tails[s][k];
        (tail != NIL).then_some(tail as usize)
    }
}

/// The step at which [`Cluster::advance`] expires a pending request that
/// arrived at `arrived`: the end of its lifetime, or the next step for a
/// zero-lifetime request, which counts as pending until then.
fn pending_due(req: &VmRequest, arrived: u64) -> u64 {
    due_step(arrived + req.lifetime_steps as u64, arrived)
}

/// Pending requests by due step, so [`Cluster::advance`] learns how many
/// expire without a scan. A ring of `ring.len()` counts (zero or a power
/// of two) covers the due steps `now + 1 ..= now + ring.len()`, one per
/// bucket: step `t` is counted in bucket `t % ring.len()`. The ring
/// widens to the longest remaining lifetime queued (up to
/// [`MAX_WHEEL_SPAN`]); requests due farther ahead are counted in
/// `beyond` and move into the ring when their step comes within its span.
#[derive(Debug, Clone, Default)]
struct DueCounts {
    ring: Vec<u32>,
    beyond: BTreeMap<u64, u32>,
}

impl DueCounts {
    fn bucket(&self, due: u64) -> usize {
        (due & (self.ring.len() as u64 - 1)) as usize
    }

    /// Count one request due at step `due`, seen at step `now < due`.
    fn add(&mut self, due: u64, now: u64) {
        let span = (due - now).min(MAX_WHEEL_SPAN);
        if span > self.ring.len() as u64 {
            self.widen(span.next_power_of_two() as usize, now);
        }
        if due - now <= self.ring.len() as u64 {
            let b = self.bucket(due);
            self.ring[b] += 1;
        } else {
            *self.beyond.entry(due).or_default() += 1;
        }
    }

    /// Uncount one request due at step `due`, seen at step `now < due`.
    fn sub(&mut self, due: u64, now: u64) {
        if due - now <= self.ring.len() as u64 {
            let b = self.bucket(due);
            self.ring[b] -= 1;
        } else if let Some(n) = self.beyond.get_mut(&due) {
            *n -= 1;
            if *n == 0 {
                self.beyond.remove(&due);
            }
        }
    }

    /// Take the count due at step `next`, one past the current step, and
    /// move the span on a step: the emptied bucket now stands for step
    /// `next + ring.len()`.
    fn expire(&mut self, next: u64) -> u32 {
        if self.ring.is_empty() {
            return 0;
        }
        let b = self.bucket(next);
        let due = std::mem::take(&mut self.ring[b]);
        let far = next + self.ring.len() as u64;
        if let Some(entry) = self.beyond.first_entry() {
            if *entry.key() == far {
                self.ring[b] = entry.remove();
            }
        }
        due
    }

    /// Recount in a ring of `len` buckets at step `now`.
    fn widen(&mut self, len: usize, now: u64) {
        let old = std::mem::replace(&mut self.ring, vec![0; len]);
        for t in now + 1..=now + old.len() as u64 {
            let count = old[(t & (old.len() as u64 - 1)) as usize];
            let b = self.bucket(t);
            self.ring[b] = count;
        }
        while let Some(entry) = self.beyond.first_entry() {
            if *entry.key() > now + len as u64 {
                break;
            }
            let (t, count) = entry.remove_entry();
            let b = self.bucket(t);
            self.ring[b] = count;
        }
    }
}

/// Rejected requests waiting for power, oldest first, with their arrival
/// step. A request whose lifetime lapses stays in place, skipped by
/// [`Cluster::recover`], until the lapsed requests outnumber the live
/// ones and [`PendingQueue::expire`] drops them all; the live ones are
/// counted by due step, so the queue's live length needs no scan.
#[derive(Debug, Clone, Default)]
struct PendingQueue {
    entries: VecDeque<(VmRequest, u64)>,
    /// Entries whose due step is still ahead.
    live: usize,
    due: DueCounts,
}

impl PendingQueue {
    /// Queue `req`, arriving at step `now`.
    fn push(&mut self, req: VmRequest, now: u64) {
        self.due.add(pending_due(&req, now), now);
        self.entries.push_back((req, now));
        self.live += 1;
    }

    /// Take out entry `i`, live at step `now`.
    fn remove(&mut self, i: usize, now: u64) {
        if let Some((req, arrived)) = self.entries.remove(i) {
            self.due.sub(pending_due(&req, arrived), now);
            self.live -= 1;
        }
    }

    /// Expire the entries due at step `next`, the new current step, and
    /// drop every lapsed entry once they outnumber the live ones.
    fn expire(&mut self, next: u64) {
        self.live -= self.due.expire(next) as usize;
        if self.entries.len() - self.live > self.live {
            self.entries
                .retain(|(req, arrived)| pending_due(req, *arrived) > next);
        }
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Per kind (by [`kind_slot`]), the servers running at least one VM
    /// of that kind: the round-robin eviction candidates.
    candidates: [Vec<u64>; 2],
    /// Slab of VMs; freed slots are `None`.
    vms: Vec<Option<Vm>>,
    /// Indices of the `None` slots of `vms`.
    free_slots: FreeSlots,
    /// Every live slab slot, by the step it expires at.
    departures: DepartureWheel,
    /// Every running slab slot, by server and kind. Changed only through
    /// [`Cluster::push_running`] and [`Cluster::drop_running`], which
    /// keep `candidates` in step.
    runs: RunLists,
    /// Scratch list of the slots [`Cluster::advance`] expires, kept for
    /// its capacity.
    due_slots: Vec<usize>,
    /// Rejected requests waiting for power.
    pending: PendingQueue,
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
    /// VMs expired by [`Cluster::advance`] so far.
    vm_expirations: u64,
    /// Servers the eviction passes have visited so far.
    victim_visits: u64,
}

impl Cluster {
    /// A fully powered, empty cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let servers = (0..cfg.n_servers)
            .map(|_| ServerState {
                free_cores: cfg.cores_per_server,
                free_mem: cfg.mem_per_server_gb,
                #[cfg(test)]
                running: Vec::new(),
            })
            .collect();
        let budget = cfg.total_cores();
        let words = cfg.n_servers.div_ceil(64);
        Cluster {
            free_index: FreeCoreIndex::new(cfg.n_servers, cfg.cores_per_server),
            candidates: [vec![0; words], vec![0; words]],
            runs: RunLists::new(cfg.n_servers),
            cfg,
            servers,
            vms: Vec::new(),
            free_slots: FreeSlots::default(),
            departures: DepartureWheel::default(),
            due_slots: Vec::new(),
            pending: PendingQueue::default(),
            hibernated: VecDeque::new(),
            rr_cursor: 0,
            now: 0,
            allocated_cores: 0,
            budget_cores: budget,
            vm_expirations: 0,
            victim_visits: 0,
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

    /// Requests in the pending (rejected) queue whose lifetime has not
    /// lapsed.
    pub fn pending_len(&self) -> usize {
        self.pending.live
    }

    /// VMs whose lifetime ended while resident, over the cluster's life.
    pub fn vm_expirations(&self) -> u64 {
        self.vm_expirations
    }

    /// Servers visited by the eviction passes of [`Cluster::set_power`]
    /// over the cluster's life: one per hibernated or evicted VM.
    pub fn victim_visits(&self) -> u64 {
        self.victim_visits
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
            let pending_before = self.pending.live;
            if self.admit(req) {
                stats.admitted += 1;
            } else if self.pending.live > pending_before {
                stats.queued += 1;
            }
        }
        self.finish_stats(&mut stats);
        stats
    }

    /// Advance the clock one step and expire finished VMs (running,
    /// hibernated, and pending).
    pub fn advance(&mut self) {
        // Expire the VMs due at the new step, lowest slab slot first: the
        // order that fixes each server's `free_mem` sum. Their bucket also
        // lists VMs due whole wheel turns later, which stay.
        let mut due = std::mem::take(&mut self.due_slots);
        let next = self.now + 1;
        self.departures.listed_at(next, &mut due);
        due.retain(|&slot| self.vms[slot].as_ref().is_some_and(|vm| vm.expired(next)));
        due.sort_unstable();
        for &slot in &due {
            self.remove_vm(VmId(slot));
        }
        self.vm_expirations += due.len() as u64;
        due.clear();
        self.due_slots = due;
        self.now = next;
        self.hibernated.retain(|id| {
            // remove_vm above already dropped expired ones from the slab.
            self.vms[id.0].is_some()
        });
        self.pending.expire(next);
    }

    /// Apply a power budget. Returns the stable VMs evicted to satisfy
    /// it; the caller decides where they go (another site, or dropped).
    pub fn set_power(&mut self, power_frac: f64, stats: &mut StepStats) -> Vec<EvictedVm> {
        // `as u32` truncates and saturates: for every f64 it gives the
        // integer `floor` then `as u32` gives, without libm's `floor`
        // (`saturating_cast_is_floor_then_cast`).
        let budget = (power_frac.clamp(0.0, 1.0) * self.cfg.total_cores() as f64) as u32;
        self.budget_cores = budget;
        stats.budget_cores = budget;

        let mut evicted = Vec::new();
        if self.allocated_cores <= budget {
            return evicted;
        }

        // 1) Hibernate degradable VMs, round-robin over servers.
        self.for_each_rr_victim(budget, VmKind::Degradable, |cluster, id| {
            cluster.hibernate(id);
            stats.hibernated += 1;
        });

        // 2) Migrate out stable VMs, round-robin over servers.
        if self.allocated_cores > budget {
            let mut out = Vec::new();
            self.for_each_rr_victim(budget, VmKind::Stable, |cluster, id| {
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
        // is long and the capacity exhausted. Lapsed entries are passed
        // over and count toward no bound: the scan meets the live ones
        // as it would in a queue without them.
        const MAX_CONSECUTIVE_FAILURES: usize = 200;
        let admit_cap = self.admission_cap();
        let mut i = 0usize;
        let mut failures = 0usize;
        while i < self.pending.entries.len() && failures < MAX_CONSECUTIVE_FAILURES {
            if self.allocated_cores >= admit_cap {
                break;
            }
            let (req, arrived) = self.pending.entries[i];
            if pending_due(&req, arrived) <= self.now {
                i += 1;
                continue;
            }
            let fits_cap = self.allocated_cores + req.cores <= admit_cap;
            let departs_at = arrived + req.lifetime_steps as u64;
            if fits_cap && self.place(req, arrived, departs_at).is_some() {
                self.pending.remove(i, self.now);
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
        self.pending.push(req, self.now);
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
        // Truncating cast, as in `set_power`.
        (self.cfg.target_util * self.budget_cores as f64) as u32
    }

    fn finish_stats(&self, stats: &mut StepStats) {
        stats.allocated_cores = self.allocated_cores;
        stats.utilization = self.utilization();
        stats.pending_len = self.pending.live;
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
        let (vms, now) = (&self.vms, self.now);
        self.departures
            .insert(id.0, due_step(departs_at, now), now, |slot| {
                vms[slot]
                    .as_ref()
                    .map_or(0, |vm| due_step(vm.departs_at, now))
            });
        self.set_free_cores(server, self.servers[server].free_cores - req.cores);
        self.servers[server].free_mem -= req.mem_gb;
        self.push_running(server, id, req.kind);
        self.allocated_cores += req.cores;
        Some(id)
    }

    /// The server with the fewest free cores among those with at least
    /// `cores` free cores and `mem_gb` free memory, the lowest index on
    /// ties. Non-empty levels are searched upward from `cores` and each
    /// level's servers in index order, so the first server with the
    /// memory is the answer.
    fn best_fit(&self, cores: u32, mem_gb: f64) -> Option<usize> {
        for level in cores..=self.cfg.cores_per_server {
            if self.free_index.len[level as usize] == 0 {
                continue;
            }
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

    /// Add `id`, of `kind`, to server `s`'s run list.
    fn push_running(&mut self, s: usize, id: VmId, kind: VmKind) {
        #[cfg(test)]
        self.servers[s].running.push(id);
        let k = kind_slot(kind);
        self.runs.push(s, k, id.0);
        self.candidates[k][s / 64] |= 1 << (s % 64);
    }

    /// Take `id`, of `kind`, off server `s`'s run list.
    fn drop_running(&mut self, s: usize, id: VmId, kind: VmKind) {
        #[cfg(test)]
        self.servers[s].running.retain(|&v| v != id);
        let k = kind_slot(kind);
        if self.runs.remove(s, k, id.0) {
            self.candidates[k][s / 64] &= !(1 << (s % 64));
        }
    }

    /// Store `vm` in the lowest empty slab slot, or a new one.
    fn alloc_slot(&mut self, vm: Vm) -> VmId {
        if let Some(idx) = self.free_slots.pop_lowest() {
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
        self.free_slots.insert(id.0);
        self.departures
            .remove(id.0, due_step(vm.departs_at, self.now));
        match vm.state {
            VmState::Running(s) => {
                self.set_free_cores(s, self.servers[s].free_cores + vm.request.cores);
                self.servers[s].free_mem += vm.request.mem_gb;
                self.drop_running(s, id, vm.request.kind);
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
        let (cores, kind) = (vm.request.cores, vm.request.kind);
        self.set_free_cores(s, self.servers[s].free_cores + cores);
        self.drop_running(s, id, kind);
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
        self.push_running(target, id, req.kind);
        self.allocated_cores += req.cores;
        true
    }

    /// Evict running VMs of `kind` in round-robin order over servers
    /// (one victim per server visit, the tail of the server's run list of
    /// that kind), calling `evict` until the allocation fits the budget or
    /// no candidate remains. Each visit jumps straight to the next server
    /// holding a candidate, so a pass with none (the hibernation pass of
    /// an all-stable cluster) visits no server. The cursor ends one past
    /// the last victim's server, or where it was if there was none: where
    /// a visit of every server in turn leaves it.
    fn for_each_rr_victim(
        &mut self,
        budget: u32,
        kind: VmKind,
        mut evict: impl FnMut(&mut Cluster, VmId),
    ) {
        let k = kind_slot(kind);
        while self.allocated_cores > budget {
            let Some(s) = next_set_cyclic(&self.candidates[k], self.rr_cursor) else {
                break;
            };
            self.victim_visits += 1;
            self.rr_cursor = (s + 1) % self.servers.len();
            let victim = self
                .runs
                .last(s, k)
                // vb-audit: allow(no-panic, a candidate server runs a vm of the kind by construction)
                .expect("candidate server has a victim");
            evict(self, VmId(victim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_cast_is_floor_then_cast() {
        // `set_power`, `admission_cap` (and vb-sched's budget and
        // admission caps) cast without `floor`: `as u32` truncates
        // toward zero and saturates, so it must give the same integer
        // as `floor` then `as u32` for every f64.
        let same =
            |x: f64| assert_eq!(x as u32, x.floor() as u32, "x = {x:e} ({:#x})", x.to_bits());
        let edges = [
            0.0,
            -0.0,
            -f64::MIN_POSITIVE,
            -0.5,
            -1.0,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            u32::MAX as f64 - 0.5,
            u32::MAX as f64,
            u32::MAX as f64 + 0.5,
            4_294_967_296.0,
            1e20,
        ];
        for x in edges {
            same(x);
        }
        // Either side of every integer up to 70,000 and near 2^32.
        let around = |n: f64| [n.next_down(), n, n.next_up()];
        for n in (0..70_000).chain((u32::MAX - 70_000)..=u32::MAX) {
            around(n as f64).into_iter().for_each(same);
        }
        around(4_294_967_296.0).into_iter().for_each(same);
        // A dense grid of the products the sites compute: a fraction
        // of a core count.
        for cores in [1u32, 100, 700, 1_000, 4_000] {
            for k in 0..=200_000u32 {
                same(k as f64 / 200_000.0 * cores as f64);
                same(0.7 * (k as f64 / 200_000.0 * cores as f64));
            }
        }
    }

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

    #[test]
    fn departures_beyond_the_wheel_span_wait_their_turn() {
        let mut c = Cluster::new(small_cfg());
        // Same bucket once the wheel stops widening, a turn apart.
        let far = MAX_WHEEL_SPAN + 5;
        assert!(c.place_migrated(VmRequest::stable(2, 8.0, 100), far));
        assert!(c.place_migrated(VmRequest::stable(3, 8.0, 100), 5));
        assert_eq!(c.departures.heads.len() as u64, MAX_WHEEL_SPAN);
        for _ in 0..5 {
            c.advance();
        }
        assert_eq!(c.allocated_cores(), 2, "only the near VM is due at step 5");
        while c.now() + 1 < far {
            c.advance();
        }
        assert_eq!(c.allocated_cores(), 2);
        c.advance();
        assert_eq!(c.allocated_cores(), 0, "the far VM leaves at its own step");
        assert_eq!(c.vm_expirations(), 2);
    }

    #[test]
    fn pending_requests_beyond_the_count_span_wait_their_turn() {
        let mut c = Cluster::new(small_cfg());
        let mut st = stats();
        c.set_power(0.0, &mut st);
        // Due the same bucket once the ring stops widening, a turn apart.
        let far = MAX_WHEEL_SPAN as u32 + 5;
        assert!(!c.admit(VmRequest::stable(2, 8.0, far)));
        assert!(!c.admit(VmRequest::stable(3, 8.0, 5)));
        assert_eq!(c.pending.due.ring.len() as u64, MAX_WHEEL_SPAN);
        assert_eq!(
            c.pending.due.beyond.len(),
            1,
            "the far request is counted apart"
        );
        for _ in 0..5 {
            c.advance();
        }
        assert_eq!(c.pending_len(), 1, "only the near request is due at step 5");
        while c.now() + 1 < far as u64 {
            c.advance();
        }
        assert_eq!(c.pending_len(), 1);
        assert!(c.pending.due.beyond.is_empty(), "in the ring's span by now");
        c.advance();
        assert_eq!(c.pending_len(), 0, "the far request lapses at its own step");
        assert!(c.pending.entries.is_empty(), "and the queue is compacted");
    }

    #[test]
    fn zero_lifetime_rejected_arrivals_stay_pending_to_the_end_of_their_step() {
        let mut c = Cluster::new(small_cfg());
        let st = c.step(0.0, &[VmRequest::stable(1, 4.0, 0)]);
        assert_eq!((st.queued, st.pending_len), (1, 1));
        assert_eq!(c.pending_len(), 1);
        c.advance();
        assert_eq!(c.pending_len(), 0, "gone at the next step");
    }

    #[test]
    fn recover_passes_over_lapsed_requests_without_counting_failures() {
        let mut c = Cluster::new(small_cfg());
        let mut st = stats();
        c.set_power(0.0, &mut st);
        // 300 requests lapse at step 2 ahead of 301 that stay: more than
        // `recover`'s failure bound, but not more than the live ones, so
        // they stay in the queue.
        for _ in 0..300 {
            assert!(!c.admit(VmRequest::stable(1, 1.0, 2)));
        }
        for _ in 0..301 {
            assert!(!c.admit(VmRequest::stable(1, 1.0, 100)));
        }
        c.advance();
        c.advance();
        assert_eq!(c.pending_len(), 301);
        assert_eq!(c.pending.entries.len(), 601, "lapsed requests stay queued");
        let mut st = stats();
        c.set_power(1.0, &mut st);
        c.recover(&mut st);
        assert_eq!(st.migrations_in, 28, "the admission cap's worth launches");
        assert_eq!(c.pending_len(), 273);
    }

    #[test]
    fn zero_lifetime_arrivals_leave_at_the_next_step() {
        let mut c = Cluster::new(small_cfg());
        assert!(c.admit(VmRequest::stable(2, 8.0, 0)));
        assert_eq!(c.allocated_cores(), 2);
        c.advance();
        assert_eq!(c.allocated_cores(), 0);
        assert_eq!(c.vm_expirations(), 1);
    }

    #[test]
    fn expiry_runs_in_slab_order() {
        // Both VMs leave server 0 at step 5. Added back in slot order its
        // memory returns to exactly 100 GB; in the other order, f64
        // rounding leaves 99.99999999999999.
        let mut c = Cluster::new(small_cfg());
        assert!(c.admit(VmRequest::stable(1, 0.2, 5)));
        assert!(c.admit(VmRequest::stable(1, 16.1, 5)));
        for _ in 0..5 {
            assert_advance_matches_sweep(&c);
            c.advance();
        }
        assert_eq!(c.servers[0].free_mem, 100.0);
        assert_eq!(c.vm_expirations(), 2);
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

    /// Hibernate or migrate out `id`, as the two passes of `set_power` do.
    fn evict(c: &mut Cluster, id: VmId, kind: VmKind) {
        match kind {
            VmKind::Degradable => c.hibernate(id),
            VmKind::Stable => c.remove_vm(id),
        }
    }

    /// The full cycles `for_each_rr_victim` replaced, kept as the oracle
    /// for its victims and cursor: visit every server in turn from the
    /// cursor, one victim per visit, until the allocation fits or a whole
    /// cycle finds none.
    fn linear_rr_victims(c: &mut Cluster, budget: u32, kind: VmKind) -> Vec<VmId> {
        let n = c.servers.len();
        let mut victims = Vec::new();
        let mut visited_without_victim = 0;
        while c.allocated_cores > budget && visited_without_victim < n {
            let s = c.rr_cursor % n;
            c.rr_cursor = (c.rr_cursor + 1) % n;
            let victim = c.servers[s]
                .running
                .iter()
                .rev()
                .copied()
                .find(|id| c.vms[id.0].as_ref().expect("listed").request.kind == kind);
            match victim {
                Some(id) => {
                    evict(c, id, kind);
                    victims.push(id);
                    visited_without_victim = 0;
                }
                None => visited_without_victim += 1,
            }
        }
        victims
    }

    /// The slab sweep the departure wheel replaced, kept as the oracle
    /// for `advance`: every VM whose lifetime is over leaves, lowest slot
    /// first.
    fn linear_advance(c: &mut Cluster) {
        let next = c.now + 1;
        for slot in 0..c.vms.len() {
            if c.vms[slot].as_ref().is_some_and(|vm| vm.expired(next)) {
                c.remove_vm(VmId(slot));
            }
        }
        c.now = next;
        c.hibernated.retain(|id| c.vms[id.0].is_some());
        c.pending
            .entries
            .retain(|(req, arrived)| arrived + req.lifetime_steps as u64 > next);
    }

    /// The pending requests whose lifetime has not lapsed, in queue order.
    fn live_pending(c: &Cluster) -> Vec<(VmRequest, u64)> {
        c.pending
            .entries
            .iter()
            .copied()
            .filter(|(req, arrived)| pending_due(req, *arrived) > c.now)
            .collect()
    }

    /// `advance` leaves the state the slab sweep left, down to the bits
    /// of every server's free memory.
    fn assert_advance_matches_sweep(c: &Cluster) {
        let mut want = c.clone();
        linear_advance(&mut want);
        let mut got = c.clone();
        got.advance();
        for (s, (g, w)) in got.servers.iter().zip(&want.servers).enumerate() {
            assert_eq!(
                g.free_mem.to_bits(),
                w.free_mem.to_bits(),
                "server {s} memory"
            );
            assert_eq!(g.free_cores, w.free_cores, "server {s} cores");
            assert_eq!(g.running, w.running, "server {s} run list");
        }
        let departures = |c: &Cluster| -> Vec<Option<u64>> {
            c.vms
                .iter()
                .map(|v| v.as_ref().map(|vm| vm.departs_at))
                .collect()
        };
        assert_eq!(departures(&got), departures(&want), "slab after expiry");
        assert_eq!(got.hibernated, want.hibernated, "hibernated queue");
        // The eager sweep keeps exactly the live requests; `advance`
        // leaves lapsed ones in place until they outnumber the live.
        let live = live_pending(&got);
        assert_eq!(
            live,
            Vec::from(want.pending.entries.clone()),
            "pending queue"
        );
        assert_eq!(got.pending_len(), live.len(), "live pending requests");
        let lapsed = got.pending.entries.len() - live.len();
        assert!(lapsed <= live.len(), "{lapsed} lapsed of {}", live.len());
        assert_eq!(
            (got.now, got.allocated_cores),
            (want.now, want.allocated_cores)
        );
        assert_eq!(got.vm_expirations - c.vm_expirations, {
            let live = |c: &Cluster| c.vms.iter().flatten().count();
            (live(c) - live(&want)) as u64
        });
    }

    /// `recover` launches what it launches from a queue swept of lapsed
    /// requests, in the same order, and leaves the same live requests.
    fn assert_recover_matches_swept_queue(c: &Cluster) {
        let mut swept = c.clone();
        let now = c.now;
        swept
            .pending
            .entries
            .retain(|(req, arrived)| pending_due(req, *arrived) > now);
        let mut got = c.clone();
        let (mut got_stats, mut want_stats) = (stats(), stats());
        got.recover(&mut got_stats);
        swept.recover(&mut want_stats);
        assert_eq!(got_stats, want_stats, "recover's stats");
        assert_eq!(
            live_pending(&got),
            live_pending(&swept),
            "queue after recover"
        );
        assert_eq!(got.pending_len(), swept.pending_len());
        let placed = |c: &Cluster| -> Vec<Option<(u64, VmState)>> {
            c.vms
                .iter()
                .map(|v| v.as_ref().map(|vm| (vm.departs_at, vm.state)))
                .collect()
        };
        assert_eq!(placed(&got), placed(&swept), "slab after recover");
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
        for level in 0..=c.cfg.cores_per_server {
            let at_level = c.servers.iter().filter(|s| s.free_cores == level);
            assert_eq!(
                c.free_index.len[level as usize] as usize,
                at_level.count(),
                "servers at level {level}"
            );
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
        // Run lists: the shadow list holds the VMs the slab has running on
        // each server; read back from its tail, each kind's list is the
        // shadow's VMs of that kind in order, with consistent links; the
        // candidate bit is set exactly when that list is non-empty.
        for (s, server) in c.servers.iter().enumerate() {
            let mut shadow = server.running.clone();
            shadow.sort_unstable();
            let on_server: Vec<VmId> = (0..c.vms.len())
                .filter(|&i| {
                    c.vms[i]
                        .as_ref()
                        .is_some_and(|vm| vm.state == VmState::Running(s))
                })
                .map(VmId)
                .collect();
            assert_eq!(shadow, on_server, "shadow run list of server {s}");
            for kind in [VmKind::Stable, VmKind::Degradable] {
                let k = kind_slot(kind);
                let want: Vec<usize> = server
                    .running
                    .iter()
                    .filter(|id| c.vms[id.0].as_ref().expect("listed").request.kind == kind)
                    .map(|id| id.0)
                    .collect();
                let mut got = Vec::new();
                let (mut next, mut slot) = (NIL, c.runs.tails[s][k]);
                while slot != NIL {
                    let i = slot as usize;
                    assert_eq!(c.runs.links[i].1, next, "forward link of slot {i}");
                    got.push(i);
                    (next, slot) = (slot, c.runs.links[i].0);
                }
                got.reverse();
                assert_eq!(got, want, "run list of server {s}, {kind:?}");
                let bit = (c.candidates[k][s / 64] >> (s % 64)) & 1 == 1;
                assert_eq!(
                    bit,
                    !want.is_empty(),
                    "candidate bit of server {s}, {kind:?}"
                );
            }
        }
        // Pending queue: the live count and the due counts match a scan of
        // the queue's live requests.
        let mut by_due = BTreeMap::new();
        for (req, arrived) in live_pending(c) {
            *by_due.entry(pending_due(&req, arrived)).or_insert(0u32) += 1;
        }
        assert_eq!(c.pending_len(), by_due.values().sum::<u32>() as usize);
        let counts = &c.pending.due;
        let span = counts.ring.len() as u64;
        for t in c.now + 1..=c.now + span {
            let n = by_due.get(&t).copied().unwrap_or(0);
            assert_eq!(counts.ring[counts.bucket(t)], n, "requests due at {t}");
        }
        let beyond: BTreeMap<u64, u32> = by_due
            .range(c.now + span + 1..)
            .map(|(&t, &n)| (t, n))
            .collect();
        assert_eq!(counts.beyond, beyond, "requests due past the ring");
        // The departure wheel lists each live slot once, in the bucket of
        // its due step, with consistent back links.
        let wheel = &c.departures;
        let mut listed = vec![0usize; c.vms.len()];
        for (b, &head) in wheel.heads.iter().enumerate() {
            let (mut prev, mut slot) = (NIL, head);
            while slot != NIL {
                let s = slot as usize;
                let vm = c.vms[s].as_ref().expect("wheel lists a live slot");
                let due = due_step(vm.departs_at, c.now);
                assert!(due > c.now, "slot {s} overdue");
                assert_eq!(wheel.bucket(due), b, "slot {s} due at {due}");
                assert_eq!(wheel.links[s].0, prev, "back link of slot {s}");
                listed[s] += 1;
                (prev, slot) = (slot, wheel.links[s].1);
            }
        }
        for (s, vm) in c.vms.iter().enumerate() {
            assert_eq!(
                listed[s],
                vm.is_some() as usize,
                "wheel entries of slot {s}"
            );
        }
        let words = &c.free_slots.words;
        let free_slots: Vec<usize> = (0..words.len() * 64)
            .filter(|&i| (words[i / 64] >> (i % 64)) & 1 == 1)
            .collect();
        let empty: Vec<usize> = (0..c.vms.len()).filter(|&i| c.vms[i].is_none()).collect();
        assert_eq!(free_slots, empty, "free-slot set vs empty slab slots");
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
        // Both eviction passes pick the same victims as the full cycles,
        // and leave the cursor where they did.
        for kind in [VmKind::Degradable, VmKind::Stable] {
            for budget in [c.allocated_cores / 2, 0] {
                let mut oracle = c.clone();
                let want = linear_rr_victims(&mut oracle, budget, kind);
                let mut fast = c.clone();
                let mut got = Vec::new();
                fast.for_each_rr_victim(budget, kind, |f, id| {
                    got.push(id);
                    evict(f, id, kind);
                });
                assert_eq!(got, want, "{kind:?} victims down to {budget} cores");
                assert_eq!(fast.rr_cursor, oracle.rr_cursor, "cursor after {kind:?}");
                assert_eq!(fast.victim_visits - c.victim_visits, got.len() as u64);
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Lifetimes from zero: a zero-lifetime arrival leaves, or lapses
        /// from the pending queue, at the next step.
        fn arb_request() -> impl Strategy<Value = VmRequest> {
            (1u32..=40, 1u32..=16, 0u32..=120, proptest::bool::ANY).prop_map(
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
                    (
                        0.0..=1.0f64,
                        proptest::collection::vec(arb_request(), 0..24),
                        proptest::collection::vec((arb_request(), 1u64..=3_000), 0..4),
                    ),
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
                        for (power, arrivals, migrated) in &steps {
                            assert_advance_matches_sweep(&c);
                            // The state `step` hands to `recover`.
                            let mut before_recover = c.clone();
                            before_recover.advance();
                            before_recover.set_power(*power, &mut stats());
                            assert_recover_matches_swept_queue(&before_recover);
                            c.step(*power, arrivals);
                            // Migrated-in VMs keep their remaining lifetime,
                            // which can reach past the wheel's current span
                            // (steady-state prefill residuals reach 1,344
                            // steps), so the wheel widens mid-run.
                            for &(req, ahead) in migrated {
                                c.place_migrated(req, c.now() + ahead);
                            }
                            assert_indexes_match_scans(&c);
                        }
                    }
                }
            }
        }
    }
}
