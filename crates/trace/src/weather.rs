//! Spatially correlated stochastic weather drivers.
//!
//! §2.3 of the paper rests on one empirical fact: renewable production at
//! different sites is "often independent and/or complimentary", because
//! of (a) different sources, (b) micro-climates/weather and (c) time of
//! day. To reproduce that with synthetic traces, all sites draw their
//! randomness from one shared [`WeatherField`]:
//!
//! * The field owns a grid of *anchor* processes covering Europe. A
//!   site's driver is a distance-weighted blend of AR(1)-smoothed anchor
//!   processes plus an idiosyncratic local component, so correlation
//!   decays smoothly with distance (micro-climate effect).
//! * Anchor processes are read with a longitude-dependent time lag,
//!   mimicking weather systems advected west → east across the continent.
//!   Distant sites therefore see the same front at different times — the
//!   complementary UK-wind / PT-wind pattern of Figure 3a. The lag is
//!   applied to the *smoothed* anchor processes, so nearby sites (whose
//!   lags differ by minutes) stay strongly correlated.
//! * Underlying innovations are generated *counter-based* (hash of
//!   `(seed, channel, anchor, sample index)` → normal deviate), so any
//!   time window of any site can be produced independently and
//!   reproducibly, without storing state.
//! * The sites of a group read the same anchor streams, so
//!   `WeatherField::ar1_batch` serves all of a group's driver requests
//!   at once: it draws each stream's innovations once per merged window
//!   and filters every request's slice of them, bit-identical to
//!   serving each request alone.
//! * Successive groups read the anchor streams over overlapping windows
//!   too (the studies of one catalog), so each thread keeps anchor
//!   windows between batches and draws only samples it does not hold.
//!   Per stream it holds the windows its last batch read there, plus
//!   every earlier window none of them overlaps (a solar-only group
//!   reads the gust anchors only at the forecast-error offsets, and the
//!   gust trace window stays for the next wind group), at most four
//!   per stream (`HELD_WINDOWS`) unless the last batch alone read more.
//!   Innovations are pure functions of their coordinates, so a held
//!   sample equals a fresh draw and outputs never depend on what the
//!   thread synthesized before.
//! * Each read's AR(1) filter is a chain of dependent multiply-adds, and
//!   most stream groups hold only one or two reads, so the batch filters
//!   anchor reads four at a time in lockstep, across stream groups: the
//!   four chains are independent, so their steps overlap. Each output
//!   element still receives its terms in the order one-read-at-a-time
//!   filtering adds them (lanes add in lane order, which is read order),
//!   so the sums stay bit-identical.

use crate::site::{haversine_km, Site};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::rc::Rc;

/// Independent driver channels. Using distinct channels guarantees, e.g.,
/// that cloud cover and wind speed are uncorrelated even at one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Cloud transmittance driver (solar sites).
    Cloud,
    /// Slow synoptic wind regime driver.
    WindRegime,
    /// Fast wind turbulence driver.
    WindGust,
}

impl Channel {
    fn id(self) -> u64 {
        match self {
            Channel::Cloud => 1,
            Channel::WindRegime => 2,
            Channel::WindGust => 3,
        }
    }

    /// Spatial correlation length in kilometres. Synoptic systems span
    /// more of the map than individual cloud fields or gusts.
    fn correlation_km(self) -> f64 {
        match self {
            Channel::Cloud => 300.0,
            Channel::WindRegime => 600.0,
            Channel::WindGust => 150.0,
        }
    }

    /// Is this channel advected with the prevailing westerlies?
    fn advected(self) -> bool {
        matches!(self, Channel::WindRegime | Channel::Cloud)
    }
}

/// Shared, seeded source of spatially correlated noise.
#[derive(Debug, Clone)]
pub struct WeatherField {
    seed: u64,
    anchors: Vec<(f64, f64)>, // (lat, lon)
}

/// Eastward speed of weather systems, in degrees of longitude per day.
/// ~8°/day corresponds to a synoptic system crossing Europe in 4–5 days.
const ADVECTION_DEG_PER_DAY: f64 = 8.0;

/// Fraction of a site's driver variance that is purely local
/// (micro-climate), never shared with any other site.
const LOCAL_VARIANCE: f64 = 0.30;

/// Anchor weights below this are skipped entirely.
const MIN_WEIGHT: f64 = 1e-3;

impl WeatherField {
    /// Build a field over the European anchor grid.
    pub fn new(seed: u64) -> WeatherField {
        let mut anchors = Vec::new();
        let mut lat = 36.0;
        while lat <= 66.0 {
            let mut lon = -10.0;
            while lon <= 26.0 {
                anchors.push((lat, lon));
                lon += 6.0;
            }
            lat += 6.0;
        }
        WeatherField { seed, anchors }
    }

    /// The seed this field was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// AR(1)-smoothed, spatially correlated driver series for `site`:
    /// per-sample persistence `rho`, unit marginal variance, covering
    /// absolute sample indices `[t0, t0 + n)` (15-minute samples from the
    /// trace epoch).
    ///
    /// Identical arguments always return identical values; nearby sites
    /// on the same channel are strongly correlated, distant sites nearly
    /// independent, and (on advected channels) eastern sites lag western
    /// ones. Windows are consistent: overlapping windows agree on the
    /// overlap. This is the one-request call of the batched engine
    /// behind group synthesis (`Catalog::group_series`).
    pub fn ar1(&self, channel: Channel, site: &Site, rho: f64, t0: i64, n: usize) -> Vec<f64> {
        let request = Ar1Request {
            channel,
            site,
            rho,
            t0,
            n,
        };
        self.ar1_batch(&[request]).swap_remove(0)
    }

    /// The driver series of every request, in request order, each
    /// bit-identical to what [`WeatherField::ar1`] returns for it alone.
    ///
    /// A driver is a weighted sum of AR(1)-filtered streams of
    /// counter-based innovations: one stream per contributing anchor and
    /// one local to the site. Requests of one site group read the same
    /// anchor streams over overlapping windows (and a site's own
    /// drivers read the same local stream), so the engine draws each
    /// stream's innovations once per merged window, then filters every
    /// request's slice of it with the request's own `rho`. Windows of
    /// one stream merge only where they overlap.
    ///
    /// A local stream's merged window is drawn into one reused buffer.
    /// An anchor stream's comes from this thread's [`AnchorMemo`], which
    /// keeps the anchor windows of earlier batches and draws only the
    /// samples they do not cover. The batch adds the anchor innovations
    /// it drew and those it copied from held windows to
    /// `trace.anchor_draws` and `trace.anchor_copied` once, at its end.
    ///
    /// Each output adds its contributions in the order a lone request
    /// would (anchor index ascending, then the local stream), which is
    /// what keeps the sums bit-identical.
    ///
    /// One read's filter is a chain of dependent multiply-adds, and most
    /// stream groups hold only one or two reads, so anchor reads are
    /// filtered four at a time in lockstep ([`Lanes`]), in the order the
    /// loop visits them, each lane holding its memo window by `Rc`: no
    /// sample is copied, and the memo holds every such window anyway, so
    /// the lanes add no heap. The four recurrences are independent, so
    /// their steps overlap. The output phase adds the lanes' terms at
    /// each output index in lane order, so two lanes feeding one output
    /// (consecutive anchors of one request) still add in anchor order,
    /// element by element: every output element sees the same additions
    /// in the same order as when each read is filtered alone. The lanes
    /// flush before a local stream group and at the end.
    ///
    /// # Panics
    /// Panics if a request's `rho` is outside `[0, 1)`.
    pub(crate) fn ar1_batch(&self, requests: &[Ar1Request<'_>]) -> Vec<Vec<f64>> {
        let mut reads = Vec::new();
        for (out, request) in requests.iter().enumerate() {
            assert!((0.0..1.0).contains(&request.rho), "rho must be in [0, 1)");
            if request.n > 0 {
                self.push_reads(out, request, &mut reads);
            }
        }
        // Stable sort: one key's reads become adjacent and ordered by
        // window start, and keys run anchors (by index) before local
        // streams within each channel.
        reads.sort_by_key(|r| (r.channel, r.local, r.stream, r.start));

        let mut outs: Vec<Vec<f64>> = requests.iter().map(|r| vec![0.0; r.n]).collect();
        let mut draws = Vec::new();
        let mut lanes = Lanes::default();
        let (drawn, copied) = ANCHOR_MEMO.with_borrow_mut(|memo| {
            memo.begin(self.seed);
            let mut first = 0;
            while first < reads.len() {
                let head = &reads[first];
                let (lo, mut hi) = (head.start, head.end());
                let mut last = first + 1;
                while last < reads.len() && reads[last].same_stream(head) && reads[last].start < hi
                {
                    hi = hi.max(reads[last].end());
                    last += 1;
                }
                let key = stream_key(self.seed, head.draw_channel(), head.stream);
                if head.local {
                    // The queued anchor reads add into the outputs
                    // before any local read does, as a lone request's
                    // would.
                    lanes.flush(&mut outs);
                    draws.clear();
                    draws.extend((lo..hi).map(|t| normal(key, t)));
                    for read in &reads[first..last] {
                        let window = &draws[(read.start - lo) as usize..];
                        read.filter_into(window, &mut outs[read.out]);
                    }
                } else {
                    let slot = (head.channel - 1) as usize * self.anchors.len();
                    let (window, at) = memo.window(slot + head.stream as usize, key, lo, hi);
                    for read in &reads[first..last] {
                        let from = at + (read.start - lo) as usize;
                        lanes.push(Rc::clone(&window), from, *read, &mut outs);
                    }
                }
                first = last;
            }
            lanes.flush(&mut outs);
            memo.finish();
            (memo.drawn, memo.copied)
        });
        vb_telemetry::counter!("trace.anchor_draws").add(drawn);
        vb_telemetry::counter!("trace.anchor_copied").add(copied);
        outs
    }

    /// Append the reads of one request: each contributing anchor's
    /// stream, lagged by the site's advection delay, then the site's
    /// local stream.
    fn push_reads(&self, out: usize, request: &Ar1Request<'_>, reads: &mut Vec<Read>) {
        let Ar1Request {
            channel,
            site,
            rho,
            t0,
            n,
        } = *request;
        let corr_km = channel.correlation_km();
        let samples_per_degree = if channel.advected() {
            crate::STEPS_PER_DAY as f64 / ADVECTION_DEG_PER_DAY
        } else {
            0.0
        };
        let warmup = warmup_samples(rho);
        let read = |local: bool, stream: u64, start: i64, coef: f64| Read {
            channel: channel.id(),
            local,
            stream,
            start: start - warmup as i64,
            warmup,
            n,
            rho,
            coef,
            out,
        };

        // Contributing anchors, weight in `coef` until the scale is known.
        let first = reads.len();
        for (idx, &(alat, alon)) in self.anchors.iter().enumerate() {
            let d = haversine_km(site.lat, site.lon, alat, alon);
            let w = (-d / corr_km).exp();
            if w >= MIN_WEIGHT {
                let lag = ((site.lon - alon) * samples_per_degree).round() as i64;
                reads.push(read(false, idx as u64, t0 - lag, w));
            }
        }
        let w2: f64 = reads[first..].iter().map(|r| r.coef * r.coef).sum();
        let shared_scale = if w2 > 0.0 {
            ((1.0 - LOCAL_VARIANCE) / w2).sqrt()
        } else {
            0.0
        };
        for r in &mut reads[first..] {
            r.coef *= shared_scale;
        }
        // Idiosyncratic local component keyed by the site identity.
        reads.push(read(true, site.stream_id(), t0, LOCAL_VARIANCE.sqrt()));
    }
}

/// One AR(1) driver request: `site`'s driver on `channel` with
/// per-sample persistence `rho`, over absolute samples `[t0, t0 + n)`.
/// See [`WeatherField::ar1`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ar1Request<'a> {
    /// Driver channel.
    pub channel: Channel,
    /// Site whose anchor blend and local stream the driver reads.
    pub site: &'a Site,
    /// Per-sample persistence, in `[0, 1)`.
    pub rho: f64,
    /// First absolute sample index.
    pub t0: i64,
    /// Number of samples.
    pub n: usize,
}

/// One stream's share of one request: filter the stream's innovations
/// over `[start, start + warmup + n)` and add `coef` times the last `n`
/// filtered values into output `out`.
#[derive(Debug, Clone, Copy)]
struct Read {
    /// Channel id of the request.
    channel: u64,
    /// The site's local stream (after every anchor in sort order).
    local: bool,
    /// Anchor index, or the site's stream id when `local`.
    stream: u64,
    start: i64,
    warmup: usize,
    n: usize,
    rho: f64,
    coef: f64,
    out: usize,
}

impl Read {
    fn end(&self) -> i64 {
        self.start + (self.warmup + self.n) as i64
    }

    fn same_stream(&self, other: &Read) -> bool {
        (self.channel, self.local, self.stream) == (other.channel, other.local, other.stream)
    }

    /// Channel word the innovations are hashed with: local streams use
    /// their own, so a site's local noise never aliases an anchor's.
    fn draw_channel(&self) -> u64 {
        if self.local {
            self.channel ^ 0xdead_beef
        } else {
            self.channel
        }
    }

    /// Scale of the innovation term that keeps the output at unit
    /// variance.
    fn innov(&self) -> f64 {
        (1.0 - self.rho * self.rho).sqrt()
    }

    /// AR(1)-filter `innovations` (this read's window onward) into
    /// unit-variance output and add it, scaled, into `out`.
    fn filter_into(&self, innovations: &[f64], out: &mut [f64]) {
        let innov = self.innov();
        let (warmup, window) = innovations.split_at(self.warmup);
        let mut y = 0.0;
        for &z in warmup {
            y = self.rho * y + innov * z;
        }
        for (o, &z) in out.iter_mut().zip(window) {
            y = self.rho * y + innov * z;
            *o += self.coef * y;
        }
    }
}

/// Reads filtered together by [`Lanes`].
const LANES: usize = 4;

/// Anchor reads queued for the lockstep filter, at most [`LANES`]: each
/// with its stream's innovations (held by `Rc`, so the memo can move on
/// to the next stream) and the index of its first innovation in them.
#[derive(Default)]
struct Lanes {
    queued: Vec<(Rc<Vec<f64>>, usize, Read)>,
}

impl Lanes {
    /// Queue a read; a full set of lanes is filtered at once.
    fn push(&mut self, draws: Rc<Vec<f64>>, from: usize, read: Read, outs: &mut [Vec<f64>]) {
        self.queued.push((draws, from, read));
        if self.queued.len() == LANES {
            self.flush(outs);
        }
    }

    /// Filter every queued read into `outs` and empty the queue. Fewer
    /// than [`LANES`] reads (before a local group, at the end) are
    /// filtered one after another, in queue order.
    fn flush(&mut self, outs: &mut [Vec<f64>]) {
        match <&[_; LANES]>::try_from(&self.queued[..]) {
            Ok(lanes) => filter_lockstep(lanes, outs),
            Err(_) => {
                for (draws, from, read) in &self.queued {
                    read.filter_into(&draws[*from..], &mut outs[read.out]);
                }
            }
        }
        self.queued.clear();
    }
}

/// Filter four reads in lockstep. The warm-ups run together up to the
/// shortest, then each alone: nothing is written there, so any
/// interleaving is exact. The outputs run together up to the shortest
/// length, each index adding the lanes' terms in lane order, then each
/// lane's tail in lane order. Lanes that feed one output belong to one
/// request and share its length, so every output element receives its
/// terms in lane order, as when the reads are filtered one by one.
fn filter_lockstep(lanes: &[(Rc<Vec<f64>>, usize, Read); LANES], outs: &mut [Vec<f64>]) {
    let read: [&Read; LANES] = std::array::from_fn(|l| &lanes[l].2);
    let rho: [f64; LANES] = read.map(|r| r.rho);
    let innov: [f64; LANES] = read.map(Read::innov);
    let z: [&[f64]; LANES] =
        std::array::from_fn(|l| &lanes[l].0[lanes[l].1..][..read[l].warmup + read[l].n]);
    let mut y = [0.0; LANES];

    let warm = read.iter().map(|r| r.warmup).min().unwrap_or(0);
    for (((&z0, &z1), &z2), &z3) in z[0][..warm]
        .iter()
        .zip(&z[1][..warm])
        .zip(&z[2][..warm])
        .zip(&z[3][..warm])
    {
        for (l, zl) in [z0, z1, z2, z3].into_iter().enumerate() {
            y[l] = rho[l] * y[l] + innov[l] * zl;
        }
    }
    for l in 0..LANES {
        for &zl in &z[l][warm..read[l].warmup] {
            y[l] = rho[l] * y[l] + innov[l] * zl;
        }
    }

    let n = read.iter().map(|r| r.n).min().unwrap_or(0);
    let body: [&[f64]; LANES] = std::array::from_fn(|l| &z[l][read[l].warmup..][..n]);
    let zipped = body[0].iter().zip(body[1]).zip(body[2]).zip(body[3]);
    for (e, (((&z0, &z1), &z2), &z3)) in zipped.enumerate() {
        for (l, zl) in [z0, z1, z2, z3].into_iter().enumerate() {
            y[l] = rho[l] * y[l] + innov[l] * zl;
            outs[read[l].out][e] += read[l].coef * y[l];
        }
    }
    for l in 0..LANES {
        for (e, &zl) in z[l][read[l].warmup..].iter().enumerate().skip(n) {
            y[l] = rho[l] * y[l] + innov[l] * zl;
            outs[read[l].out][e] += read[l].coef * y[l];
        }
    }
}

thread_local! {
    /// This thread's anchor-stream innovations, kept between batches.
    /// Per thread, so `vb-par` workers need no lock, and memory stays at
    /// most [`HELD_WINDOWS`] windows per anchor stream per thread however
    /// many catalogs a process builds; a worker's memo goes when the
    /// worker exits.
    static ANCHOR_MEMO: RefCell<AnchorMemo> = RefCell::new(AnchorMemo::default());
}

/// Windows an anchor stream holds between batches, unless its last batch
/// alone read more (it keeps all of those). Four covers the disjoint
/// regions a group study reads on one stream: the trace window and the
/// three forecast-error windows of the gust channel.
const HELD_WINDOWS: usize = 4;

/// The anchor-stream innovations one thread keeps between
/// [`WeatherField::ar1_batch`] calls, keyed by (field seed, channel,
/// anchor index). Each stream holds the windows that served the last
/// batch reading it, and every window it held before that none of them
/// overlaps, so a solar-only study (which reads the gust anchors only
/// at the forecast-error offsets) leaves the gust trace window for the
/// next wind study. A window that does overlap one the batch read is
/// dropped, not extended: lag-shifted reads replace each other. At most
/// [`HELD_WINDOWS`] are kept per stream, the most recently read first,
/// unless the last batch read more. Local streams (one per site) are
/// not held: they would grow with the fleet.
#[derive(Default)]
struct AnchorMemo {
    /// Seed of the field every held window belongs to.
    seed: u64,
    /// Held windows per anchor stream, indexed `(channel id − 1) ×
    /// anchors + anchor index`, ascending by start. A window read from a
    /// longer held one keeps that one, so neighbours may overlap.
    held: Vec<Vec<Held>>,
    /// The stream the running batch is reading, and the windows that
    /// have served it so far.
    open: Option<usize>,
    serving: Vec<Held>,
    /// Batches begun on this thread: the stamp of the windows the
    /// running batch reads.
    batch: u64,
    /// Innovations the running batch drew and copied from held windows
    /// into new ones.
    drawn: u64,
    copied: u64,
}

/// Innovations of one anchor stream over `[start, start + draws.len())`.
struct Held {
    start: i64,
    draws: Rc<Vec<f64>>,
    /// The batch that last read it.
    used: u64,
}

impl Held {
    fn end(&self) -> i64 {
        self.start + self.draws.len() as i64
    }

    fn overlaps(&self, other: &Held) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl AnchorMemo {
    /// Start a batch of the field `seed`, first closing any stream a
    /// panicked batch left open. A different seed drops every held
    /// window before anything is drawn.
    fn begin(&mut self, seed: u64) {
        self.finish();
        if seed != self.seed {
            self.held.clear();
            self.seed = seed;
        }
        self.batch += 1;
        self.drawn = 0;
        self.copied = 0;
    }

    /// The innovations of anchor stream `slot` (hashed with `key`) over
    /// the merged window `[lo, hi)`, as a held window and the index of
    /// sample `lo` in it. A window inside a held one is read from it;
    /// any other is built from the samples held windows cover, drawing
    /// only the rest. A batch passes one stream's windows consecutively,
    /// ascending and disjoint; when it moves on, the windows that served
    /// the stream join its held set ([`AnchorMemo::finish`]).
    fn window(&mut self, slot: usize, key: u64, lo: i64, hi: i64) -> (Rc<Vec<f64>>, usize) {
        if self.open != Some(slot) {
            self.finish();
            self.open = Some(slot);
            if self.held.len() <= slot {
                self.held.resize_with(slot + 1, Vec::new);
            }
        }
        let held = &self.held[slot];
        let (start, draws) = match held.iter().find(|h| h.start <= lo && hi <= h.end()) {
            Some(h) => (h.start, Rc::clone(&h.draws)),
            None => {
                let mut draws = Vec::with_capacity((hi - lo) as usize);
                let mut copied = 0;
                let mut t = lo;
                for h in held.iter().take_while(|h| h.start < hi) {
                    if h.end() <= t {
                        continue;
                    }
                    draws.extend((t..h.start).map(|s| normal(key, s)));
                    t = t.max(h.start);
                    let end = h.end().min(hi);
                    let (from, to) = ((t - h.start) as usize, (end - h.start) as usize);
                    draws.extend_from_slice(&h.draws[from..to]);
                    copied += to - from;
                    t = end;
                }
                draws.extend((t..hi).map(|s| normal(key, s)));
                self.copied += copied as u64;
                self.drawn += (draws.len() - copied) as u64;
                (lo, Rc::new(draws))
            }
        };
        let served = Held {
            start,
            draws,
            used: self.batch,
        };
        let window = (Rc::clone(&served.draws), (lo - served.start) as usize);
        self.serving.push(served);
        window
    }

    /// Close the open stream: the windows that served it join its held
    /// set, replacing every held window they overlap, and the least
    /// recently read of the rest go until the stream holds
    /// [`HELD_WINDOWS`].
    fn finish(&mut self) {
        let Some(slot) = self.open.take() else {
            return;
        };
        let (held, serving) = (&mut self.held[slot], &mut self.serving);
        // Consecutive windows of one held window are served by it.
        serving.dedup_by(|a, b| Rc::ptr_eq(&a.draws, &b.draws));
        held.retain(|h| !serving.iter().any(|s| s.overlaps(h)));
        let room = HELD_WINDOWS.saturating_sub(serving.len());
        if held.len() > room {
            held.sort_unstable_by_key(|h| (Reverse(h.used), h.start));
            held.truncate(room);
        }
        held.append(serving);
        held.sort_unstable_by_key(|h| h.start);
    }
}

/// Warm-up samples before an AR(1) window: long enough for
/// `rho^warmup < 1e-13`, which makes the filtered values independent of
/// where the window starts.
fn warmup_samples(rho: f64) -> usize {
    if rho > 0.0 {
        ((30.0 / (1.0 - rho)).ceil() as usize).min(60_000)
    } else {
        0
    }
}

/// Counter-based standard normal deviate of sample `t` of the stream
/// keyed `key` ([`stream_key`]): hash the coordinates into two uniforms
/// and apply Box–Muller. Pure function — random access in time.
fn normal(key: u64, t: i64) -> f64 {
    let u1 = uniform(mix(key, t as u64 ^ 0x9e37_79b9_7f4a_7c15));
    let u2 = uniform(mix(key, (t as u64).wrapping_add(0x5851_f42d_4c95_7f2d)));
    // Guard the log: u1 in (0,1].
    let r = (-2.0 * (1.0 - u1).max(1e-12).ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Map a 64-bit hash to a uniform in [0, 1).
fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The time-independent words of a stream's SplitMix64-style hash
/// `(seed, channel, stream, sample)`, summed once per stream: wrapping
/// addition is associative, so [`mix`] of the key and a sample word is
/// the hash of all four.
fn stream_key(seed: u64, channel: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(channel.rotate_left(17))
        .wrapping_add(stream.rotate_left(31))
}

/// Add the sample word `d` to a [`stream_key`] and finalize.
fn mix(key: u64, d: u64) -> u64 {
    let mut z = key.wrapping_add(d.rotate_left(47));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_stats::{mean, std_dev};

    fn corr(a: &[f64], b: &[f64]) -> f64 {
        let (ma, mb) = (mean(a), mean(b));
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let da: f64 = a.iter().map(|x| (x - ma).powi(2)).sum::<f64>().sqrt();
        let db: f64 = b.iter().map(|y| (y - mb).powi(2)).sum::<f64>().sqrt();
        num / (da * db)
    }

    #[test]
    fn ar1_is_deterministic() {
        let f = WeatherField::new(3);
        let s = Site::solar("a", 50.0, 5.0);
        let x = f.ar1(Channel::Cloud, &s, 0.5, 17, 50);
        let y = f.ar1(Channel::Cloud, &s, 0.5, 17, 50);
        assert_eq!(x, y);
    }

    #[test]
    fn ar1_is_roughly_standard_normal() {
        let f = WeatherField::new(11);
        let s = Site::solar("a", 50.0, 5.0);
        let xs = f.ar1(Channel::Cloud, &s, 0.3, 0, 4_000);
        assert!(mean(&xs).abs() < 0.15, "mean {}", mean(&xs));
        let sd = std_dev(&xs);
        assert!((sd - 1.0).abs() < 0.15, "std {sd}");
    }

    #[test]
    fn correlation_decays_with_distance() {
        let f = WeatherField::new(5);
        let a = Site::solar("a", 50.0, 5.0);
        let near = Site::solar("b", 50.3, 5.3);
        let far = Site::solar("c", 38.0, -9.0);
        // Probe the slow synoptic scale: advection lags differ by a few
        // samples between nearby sites, which decorrelates fast noise but
        // must preserve slow-driver correlation.
        let xa = f.ar1(Channel::Cloud, &a, 0.95, 0, 3_000);
        let c_near = corr(&xa, &f.ar1(Channel::Cloud, &near, 0.95, 0, 3_000));
        let c_far = corr(&xa, &f.ar1(Channel::Cloud, &far, 0.95, 0, 3_000));
        assert!(c_near > 0.4, "near correlation {c_near}");
        assert!(c_far < 0.3, "far correlation {c_far}");
        assert!(c_near > c_far + 0.2);
    }

    #[test]
    fn channels_are_independent() {
        let f = WeatherField::new(7);
        let s = Site::wind("w", 52.0, 0.0);
        let a = f.ar1(Channel::Cloud, &s, 0.5, 0, 3_000);
        let b = f.ar1(Channel::WindRegime, &s, 0.5, 0, 3_000);
        assert!(corr(&a, &b).abs() < 0.12);
    }

    #[test]
    fn ar1_is_serially_correlated() {
        let f = WeatherField::new(9);
        let s = Site::wind("w", 52.0, 0.0);
        let xs = f.ar1(Channel::WindGust, &s, 0.9, 0, 4_000);
        let lag1 = corr(&xs[..xs.len() - 1], &xs[1..]);
        assert!((lag1 - 0.9).abs() < 0.08, "lag-1 autocorr {lag1}");
    }

    #[test]
    fn ar1_windows_are_consistent() {
        // The same absolute instant must get the same value no matter
        // which window it is generated in.
        let f = WeatherField::new(13);
        let s = Site::wind("w", 52.0, 0.0);
        let long = f.ar1(Channel::WindRegime, &s, 0.8, 0, 300);
        let shifted = f.ar1(Channel::WindRegime, &s, 0.8, 100, 200);
        for i in 0..200 {
            assert!(
                (long[100 + i] - shifted[i]).abs() < 1e-9,
                "mismatch at {i}: {} vs {}",
                long[100 + i],
                shifted[i]
            );
        }
    }

    #[test]
    fn advection_lags_eastern_sites() {
        // A site further east should correlate best with a *delayed* copy
        // of a western site's driver.
        let f = WeatherField::new(21);
        let west = Site::wind("w-west", 52.0, -4.0);
        let east = Site::wind("w-east", 52.0, 4.0);
        let n = 4_000;
        let xw = f.ar1(Channel::WindRegime, &west, 0.95, 0, n);
        let xe = f.ar1(Channel::WindRegime, &east, 0.95, 0, n);
        // Expected lag: 8 degrees * 12 samples/degree = 96 samples.
        let at = |lag: usize| corr(&xw[..n - 96], &xe[lag..n - 96 + lag]);
        assert!(
            at(96) > at(0),
            "delayed correlation {} should beat instant {}",
            at(96),
            at(0)
        );
    }

    #[test]
    fn batch_matches_lone_requests_bit_for_bit() {
        // Overlapping, nested, disjoint, repeated and empty windows over
        // sites that share anchors: each output must equal its lone call.
        let f = WeatherField::new(17);
        let a = Site::wind("a", 52.0, 0.0);
        let b = Site::solar("b", 50.0, 4.0);
        let req = |channel, site, rho, t0, n| Ar1Request {
            channel,
            site,
            rho,
            t0,
            n,
        };
        let requests = [
            req(Channel::WindRegime, &a, 0.997, -500, 800),
            req(Channel::Cloud, &b, 0.55, 0, 300),
            req(Channel::Cloud, &b, 0.995, 0, 300),
            req(Channel::WindGust, &a, 0.3, -500, 800),
            req(Channel::WindGust, &b, 0.9, 12_000_036, 300),
            req(Channel::WindGust, &a, 0.9, 12_000_036, 300),
            req(Channel::WindRegime, &a, 0.997, -500, 800),
            req(Channel::Cloud, &a, 0.0, 40, 10),
            req(Channel::Cloud, &a, 0.5, 0, 0),
        ];
        let bits = |outs: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            outs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // The same call on a fresh thread, whose anchor memo is empty.
        let cold = |requests: &[Ar1Request<'_>]| {
            std::thread::scope(|s| {
                s.spawn(|| bits(f.ar1_batch(requests)))
                    .join()
                    .expect("batch on a fresh thread")
            })
        };
        let batch = cold(&requests);
        assert_eq!(batch.len(), requests.len());
        for (r, got) in requests.iter().zip(&batch) {
            assert_eq!(got, &cold(&[*r])[0], "{:?} rho {}", r.channel, r.rho);
        }

        // Outputs must not depend on what this thread's memo holds.
        let shifted: Vec<_> = requests
            .iter()
            .map(|r| Ar1Request {
                t0: r.t0 + 300,
                ..*r
            })
            .collect();
        let errors: Vec<_> = [(12, 0.9), (96, 0.97), (672, 0.99)]
            .iter()
            .flat_map(|&(lead, rho)| {
                let t0 = 36 + lead * 1_000_003;
                [&a, &b].map(|site| req(Channel::WindGust, site, rho, t0, 300))
            })
            .collect();
        let warmers: [(&str, &dyn Fn()); 4] = [
            ("another seed", &|| {
                WeatherField::new(18).ar1_batch(&requests);
            }),
            ("shifted window", &|| {
                f.ar1_batch(&shifted);
            }),
            ("forecast-error windows", &|| {
                f.ar1_batch(&errors);
            }),
            ("replaced held windows", &|| {
                f.ar1_batch(&requests);
                f.ar1(Channel::WindGust, &b, 0.3, 12_000_200, 50);
                f.ar1(Channel::WindRegime, &a, 0.5, -300, 600);
            }),
        ];
        for (name, warm) in warmers {
            warm();
            assert_eq!(bits(f.ar1_batch(&requests)), batch, "after {name}");
            for (r, want) in requests.iter().zip(&batch) {
                warm();
                let lone = f.ar1(r.channel, r.site, r.rho, r.t0, r.n);
                assert_eq!(&bits(vec![lone])[0], want, "{:?} after {name}", r.channel);
            }
        }
    }

    /// One request's driver with every read filtered alone, from fresh
    /// draws, in the engine's read order: no lanes and no memo.
    fn one_read_at_a_time(f: &WeatherField, r: &Ar1Request<'_>) -> Vec<f64> {
        let mut reads = Vec::new();
        f.push_reads(0, r, &mut reads);
        let mut out = vec![0.0; r.n];
        for read in &reads {
            let key = stream_key(f.seed, read.draw_channel(), read.stream);
            let draws: Vec<f64> = (read.start..read.end()).map(|t| normal(key, t)).collect();
            read.filter_into(&draws, &mut out);
        }
        out
    }

    #[test]
    fn lanes_add_in_read_order_bit_for_bit() {
        // Four requests on one channel with warm-ups from four `rho`s and
        // four lengths, so lanes mix warm-ups, lengths and outputs; each
        // output's anchors outnumber the lanes, so its reads straddle
        // lane boundaries; a request on an earlier channel puts that
        // channel's local stream group between two runs of anchor reads.
        let f = WeatherField::new(23);
        let a = Site::wind("a", 52.0, 0.0);
        let b = Site::wind("b", 47.0, 8.0);
        let req = |channel, site, rho, t0, n| Ar1Request {
            channel,
            site,
            rho,
            t0,
            n,
        };
        let requests = [
            req(Channel::WindGust, &a, 0.3, 0, 700),
            req(Channel::WindGust, &b, 0.9, 100, 500),
            req(Channel::WindRegime, &b, 0.95, 0, 400),
            req(Channel::WindGust, &a, 0.99, -200, 900),
            req(Channel::WindGust, &b, 0.997, 50, 300),
        ];

        // The batch's shape, in the order the engine queues its reads.
        let mut reads = Vec::new();
        for (out, r) in requests.iter().enumerate() {
            f.push_reads(out, r, &mut reads);
        }
        reads.sort_by_key(|r| (r.channel, r.local, r.stream, r.start));
        let gust = Channel::WindGust.id();
        let gust_anchors = reads.iter().filter(|r| r.channel == gust && !r.local);
        assert!(
            gust_anchors.count() >= 9,
            "too few anchor reads on one channel"
        );
        let first_local = reads.iter().position(|r| r.local).expect("local reads");
        assert!(
            reads[first_local..].iter().any(|r| !r.local),
            "no anchor group after a local group"
        );
        // Lane round of each anchor read: the lanes fill in read order
        // and flush before each local group.
        let mut rounds = vec![Vec::new(); requests.len()];
        let mut queued = 0;
        for r in &reads {
            if r.local {
                queued = 0;
                continue;
            }
            rounds[r.out].push(queued / LANES);
            queued += 1;
        }
        let straddling = rounds.iter().filter(|rs| rs.first() != rs.last());
        assert!(
            straddling.count() >= 2,
            "outputs within one lane round only"
        );

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let batch = f.ar1_batch(&requests);
        for (r, got) in requests.iter().zip(&batch) {
            let lone = f.ar1(r.channel, r.site, r.rho, r.t0, r.n);
            let reference = one_read_at_a_time(&f, r);
            assert_eq!(bits(got), bits(&reference), "{:?} rho {}", r.channel, r.rho);
            assert_eq!(
                bits(&lone),
                bits(&reference),
                "{:?} rho {}",
                r.channel,
                r.rho
            );
        }
    }

    /// The anchor innovations this thread's last batch drew, and the
    /// windows each anchor stream holds.
    fn memo_state() -> (u64, Vec<Vec<(i64, usize)>>) {
        ANCHOR_MEMO.with_borrow(|memo| {
            let held = memo.held.iter();
            let windows = held.map(|hs| hs.iter().map(|h| (h.start, h.draws.len())).collect());
            (memo.drawn, windows.collect())
        })
    }

    #[test]
    fn a_solar_group_leaves_the_gust_trace_windows_held() {
        // A solar-only group reads the gust anchors near it only at the
        // three forecast-error offsets; the wind group's gust trace
        // windows on those anchors must outlive it.
        let mut catalog = crate::Catalog::new(29);
        catalog.push(Site::wind("w1", 52.0, 0.0));
        catalog.push(Site::wind("w2", 50.0, 3.0));
        catalog.push(Site::solar("s1", 51.0, 1.0));
        catalog.push(Site::solar("s2", 49.0, 2.0));
        let (wind, solar) = ([0, 1], [2, 3]);
        let series = |group: &[usize]| -> Vec<u64> {
            let out = catalog.group_series(group, 10, 3, crate::Horizon::all());
            let out = out.expect("synthetic sites cover every window");
            let values = out.iter().flat_map(|s| {
                let forecasts = s.forecasts.iter().flat_map(|f| &f.values);
                s.actual.values.iter().chain(forecasts)
            });
            values.map(|x| x.to_bits()).collect()
        };
        let fresh = |group: &[usize]| {
            std::thread::scope(|s| s.spawn(|| series(group)).join().expect("fresh thread"))
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(series(&wind), fresh(&wind), "wind group");
                let (drawn, gust_trace) = memo_state();
                assert!(drawn > 0, "a fresh thread's first batch draws");
                assert_eq!(series(&solar), fresh(&solar), "solar group");
                let (_, after_solar) = memo_state();
                let gust = (Channel::WindGust.id() - 1) as usize * catalog.field().anchors.len();
                let trace_windows = |held: &[Vec<(i64, usize)>]| -> Vec<(i64, usize)> {
                    let streams = held.iter().skip(gust);
                    streams
                        .flatten()
                        .copied()
                        .filter(|&(start, _)| start < 1_000_000)
                        .collect()
                };
                assert!(!trace_windows(&gust_trace).is_empty());
                assert_eq!(trace_windows(&after_solar), trace_windows(&gust_trace));
                assert_eq!(series(&wind), fresh(&wind), "wind group again");
                assert_eq!(
                    memo_state().0,
                    0,
                    "the repeated wind group drew anchor innovations"
                );
            })
            .join()
            .expect("groups on one thread");
        });
    }

    #[test]
    fn held_windows_stay_within_the_bound() {
        let f = WeatherField::new(31);
        let site = Site::wind("w", 52.0, 0.0);
        let per_stream = |held: &[Vec<(i64, usize)>]| held.iter().map(Vec::len).max();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Disjoint windows: each stream keeps the latest four.
                let starts: Vec<i64> = (0..12).map(|k| k * 100_000).collect();
                for (k, &t0) in starts.iter().enumerate() {
                    f.ar1(Channel::WindGust, &site, 0.3, t0, 50);
                    let (_, held) = memo_state();
                    assert_eq!(per_stream(&held), Some((k + 1).min(HELD_WINDOWS)));
                }
                let (_, held) = memo_state();
                let warmup = warmup_samples(0.3) as i64;
                let latest: Vec<i64> = starts[starts.len() - HELD_WINDOWS..]
                    .iter()
                    .map(|t0| t0 - warmup)
                    .collect();
                for windows in held.iter().filter(|hs| !hs.is_empty()) {
                    let kept: Vec<i64> = windows.iter().map(|&(start, _)| start).collect();
                    assert_eq!(kept, latest, "the most recently read windows stay");
                }
                // One batch reading more disjoint windows keeps them all.
                let sweep: Vec<_> = (0..6)
                    .map(|k| Ar1Request {
                        channel: Channel::WindGust,
                        site: &site,
                        rho: 0.3,
                        t0: 5_000_000 + k * 100_000,
                        n: 50,
                    })
                    .collect();
                f.ar1_batch(&sweep);
                assert_eq!(per_stream(&memo_state().1), Some(sweep.len()));
                // Lag-shifted, overlapping windows replace each other.
                for k in 0..12 {
                    f.ar1(Channel::WindGust, &site, 0.3, 9_000_000 + 10 * k, 50);
                }
                let (_, held) = memo_state();
                for windows in held.iter().filter(|hs| !hs.is_empty()) {
                    let near = windows.iter().filter(|&&(start, _)| start >= 8_000_000);
                    assert_eq!(near.count(), 1, "overlapping windows accumulated");
                    assert_eq!(windows.len(), HELD_WINDOWS);
                }
            })
            .join()
            .expect("windows on one thread");
        });
    }

    #[test]
    #[should_panic(expected = "rho must be in [0, 1)")]
    fn ar1_rejects_bad_rho() {
        let f = WeatherField::new(1);
        let s = Site::wind("w", 52.0, 0.0);
        f.ar1(Channel::WindGust, &s, 1.0, 0, 10);
    }
}
