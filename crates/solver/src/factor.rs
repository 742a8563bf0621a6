//! Sparse LU factorization of a simplex basis.
//!
//! The revised simplex engine ([`crate::revised`]) never forms `B⁻¹`:
//! it factorizes the basis matrix `B = L·U` once and answers every
//! `B·x = b` (FTRAN) and `Bᵀ·y = c` (BTRAN) query by two sparse
//! triangular solves. This module holds the factorization itself; the
//! per-pivot eta updates that keep it current between refactorizations
//! live in [`crate::ftran`].
//!
//! Pivot order is chosen by a bounded **Markowitz** search: among a few
//! candidate columns of minimum active count, pick the entry minimising
//! the fill bound `(r−1)·(c−1)` subject to threshold partial pivoting
//! (`|a| ≥ 0.1 · colmax`). Column counts are kept in a lazy min-heap —
//! stale counts are revalidated against the live row patterns when
//! popped — so the search is cheap even as elimination fills rows in.
//! All tie-breaks are by lowest index, so the factorization (and every
//! solve through it) is a deterministic function of the basis.
//!
//! Storage is in *elementary operation* form: step `k` eliminated
//! constraint row `pivot_row[k]` and basis slot `pivot_slot[k]`; `L`
//! holds the per-step multiplier lists, `U` the surviving pivot-row
//! entries keyed by basis slot (plus a transposed copy keyed by step,
//! built once per factorization, for the BTRAN forward solve).
//!
//! A **unit basis** — one nonzero per column, on distinct rows, each at
//! least the absolute pivot floor, as every cold root's logical and
//! artificial start is — skips the search: step `k` is slot `k`,
//! pivoting on that column's entry, with `L` and `U` empty. That is
//! exactly what the Markowitz loop emits for such a basis, where every
//! count is 1 and ties go to the lowest slot.
//!
//! Both triangular solves skip the division by a pivot that is exactly
//! 1.0, since `x / 1.0 == x` for every `f64`. Logical columns and
//! placement binaries pivot on 1.0, so most pivots of the scheduler's
//! bases do: 86–89 % of the FTRAN back-substitution's divisions on the
//! benchmark's MIP workloads.

use crate::tolerance::DROP_EPS;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Within the chosen column, a pivot must be at least this fraction of
/// the column's largest magnitude (threshold partial pivoting: trades a
/// bounded growth factor for Markowitz's fill control).
const PIVOT_REL: f64 = 0.1;
/// Absolute floor below which an entry is never accepted as a pivot.
const PIVOT_ABS: f64 = 1e-11;
/// Candidate columns examined per Markowitz pivot choice.
const MARKOWITZ_CANDS: usize = 4;

/// The basis matrix was (numerically) singular: some column had no
/// acceptable pivot among the active rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularBasis;

/// A sparse LU factorization `B = L·U` in elementary-operation form.
/// Deliberately not `Clone`: states share one factorization through
/// `Arc` (see [`crate::ftran`]).
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct LuFactors {
    m: usize,
    /// Constraint row eliminated at step `k`.
    pivot_row: Vec<u32>,
    /// Basis slot (column of `B`) eliminated at step `k`.
    pivot_slot: Vec<u32>,
    /// `L` multipliers for step `k`: entries `l_starts[k]..l_starts[k+1]`
    /// of `(l_rows, l_vals)` — victim row `i` had `mult · (pivot row)`
    /// subtracted from it.
    l_starts: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// `U` row for step `k`: off-diagonal entries keyed by basis slot
    /// (always a slot eliminated at a *later* step), diagonal separate.
    u_starts: Vec<u32>,
    u_slots: Vec<u32>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// `U` by columns — column of step `k` holds `(step l < k, u_{l,k})`
    /// — for the BTRAN forward substitution.
    ut_starts: Vec<u32>,
    ut_steps: Vec<u32>,
    ut_vals: Vec<f64>,
}

impl LuFactors {
    /// Factorize the `m × m` basis given as sparse columns
    /// `cols[slot] = [(constraint row, value), ...]` (order free,
    /// duplicates forbidden, zeros ignored).
    pub(crate) fn factorize(
        m: usize,
        cols: &[Vec<(u32, f64)>],
    ) -> Result<LuFactors, SingularBasis> {
        debug_assert_eq!(cols.len(), m);
        if let Some(unit) = LuFactors::unit(m, cols) {
            return Ok(unit);
        }
        LuFactors::markowitz(m, cols)
    }

    /// The factors of a unit basis (see the module doc), or `None` when
    /// some column has other than one nonzero, two columns share a row,
    /// or an entry is below [`PIVOT_ABS`].
    fn unit(m: usize, cols: &[Vec<(u32, f64)>]) -> Option<LuFactors> {
        let mut pivot_row = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut row_taken = vec![false; m];
        for col in cols {
            let mut nonzeros = col.iter().filter(|&&(_, v)| v != 0.0);
            let (Some(&(r, v)), None) = (nonzeros.next(), nonzeros.next()) else {
                return None;
            };
            // `>=` is false for NaN, which Markowitz rejects too.
            let fits = v.abs() >= PIVOT_ABS && !std::mem::replace(&mut row_taken[r as usize], true);
            if !fits {
                return None;
            }
            pivot_row.push(r);
            u_diag.push(v);
        }
        Some(LuFactors {
            m,
            pivot_row,
            pivot_slot: (0..m as u32).collect(),
            l_starts: vec![0; m + 1],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_starts: vec![0; m + 1],
            u_slots: Vec::new(),
            u_vals: Vec::new(),
            u_diag,
            ut_starts: vec![0; m + 1],
            ut_steps: Vec::new(),
            ut_vals: Vec::new(),
        })
    }

    /// The bounded Markowitz factorization (see the module doc).
    fn markowitz(m: usize, cols: &[Vec<(u32, f64)>]) -> Result<LuFactors, SingularBasis> {
        // Working rows: rows[i] = [(slot, value), ...] over active slots,
        // kept sorted by slot so candidate validation can binary-search
        // a wide row instead of scanning it.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (slot, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    rows[r as usize].push((slot as u32, v));
                    col_rows[slot].push(r);
                }
            }
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        // Lazy min-heap of (approximate count, slot); counts only ever
        // grow stale downward (drops / eliminations), which revalidation
        // on pop corrects.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::with_capacity(2 * m);
        for (slot, rows_of) in col_rows.iter().enumerate() {
            heap.push(Reverse((rows_of.len() as u32, slot as u32)));
        }
        // Dense merge scratch, epoch-marked so it never needs clearing.
        let mut dense = vec![0.0f64; m];
        let mut mark = vec![0u32; m];
        let mut epoch = 0u32;
        // Row-seen scratch for deduplicating stale column patterns, same
        // epoch-marking scheme.
        let mut rseen = vec![0u32; m];
        let mut rep = 0u32;

        let mut out = LuFactors {
            m,
            pivot_row: Vec::with_capacity(m),
            pivot_slot: Vec::with_capacity(m),
            l_starts: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_starts: vec![0],
            u_slots: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::with_capacity(m),
            ut_starts: Vec::new(),
            ut_steps: Vec::new(),
            ut_vals: Vec::new(),
        };

        // A validated candidate column with its live entries.
        struct Cand {
            slot: u32,
            entries: Vec<(u32, f64)>, // (row, value)
            best_row: u32,
            best_val: f64,
            cost: u64,
        }

        for _step in 0..m {
            // Pop up to MARKOWITZ_CANDS distinct valid columns.
            let mut cands: Vec<Cand> = Vec::with_capacity(MARKOWITZ_CANDS);
            while cands.len() < MARKOWITZ_CANDS {
                let Some(Reverse((_, slot))) = heap.pop() else {
                    break;
                };
                let s = slot as usize;
                if !col_active[s] || cands.iter().any(|c| c.slot == slot) {
                    continue;
                }
                // Validate the (possibly stale) pattern: keep rows that
                // are active and still hold an entry at this slot.
                let mut entries: Vec<(u32, f64)> = Vec::with_capacity(col_rows[s].len());
                rep = rep.wrapping_add(1);
                if rep == 0 {
                    rseen.fill(0);
                    rep = 1;
                }
                for &r in &col_rows[s] {
                    let ru = r as usize;
                    if !row_active[ru] || rseen[ru] == rep {
                        continue;
                    }
                    rseen[ru] = rep;
                    if let Ok(i) = rows[ru].binary_search_by_key(&slot, |&(sl, _)| sl) {
                        entries.push((r, rows[ru][i].1));
                    }
                }
                if entries.is_empty() {
                    // No live entry left in this column: structurally
                    // singular.
                    return Err(SingularBasis);
                }
                col_rows[s] = entries.iter().map(|&(r, _)| r).collect();
                let colmax = entries.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
                let threshold = (PIVOT_REL * colmax).max(PIVOT_ABS);
                let mut best: Option<(u32, f64, usize)> = None; // (row, val, rcount)
                for &(r, v) in &entries {
                    if v.abs() >= threshold {
                        let rc = rows[r as usize].len();
                        let better = match best {
                            None => true,
                            Some((br, _, brc)) => rc < brc || (rc == brc && r < br),
                        };
                        if better {
                            best = Some((r, v, rc));
                        }
                    }
                }
                let Some((best_row, best_val, best_rc)) = best else {
                    // All live entries below the absolute pivot floor.
                    return Err(SingularBasis);
                };
                let ccount = entries.len() as u64;
                let cost = (best_rc as u64 - 1) * (ccount - 1);
                cands.push(Cand {
                    slot,
                    entries,
                    best_row,
                    best_val,
                    cost,
                });
            }
            if cands.is_empty() {
                return Err(SingularBasis);
            }
            // Minimum Markowitz cost, ties by lowest slot.
            let mut pick = 0;
            for (i, c) in cands.iter().enumerate().skip(1) {
                if c.cost < cands[pick].cost
                    || (c.cost == cands[pick].cost && c.slot < cands[pick].slot)
                {
                    pick = i;
                }
            }
            let chosen = cands.swap_remove(pick);
            for c in cands {
                heap.push(Reverse((c.entries.len() as u32, c.slot)));
            }
            let pslot = chosen.slot;
            let prow = chosen.best_row;
            let pval = chosen.best_val;
            debug_assert!(pval.abs() >= PIVOT_ABS);

            // Emit the U row: surviving pivot-row entries, keyed by slot.
            for &(s, v) in &rows[prow as usize] {
                if s != pslot {
                    out.u_slots.push(s);
                    out.u_vals.push(v);
                }
            }
            out.u_starts.push(out.u_slots.len() as u32);
            out.u_diag.push(pval);
            out.pivot_row.push(prow);
            out.pivot_slot.push(pslot);

            // Eliminate the pivot column from every other live row.
            let pivot_entries = std::mem::take(&mut rows[prow as usize]);
            for &(victim, vval) in &chosen.entries {
                if victim == prow {
                    continue;
                }
                let mult = vval / pval;
                out.l_rows.push(victim);
                out.l_vals.push(mult);
                // Sparse merge via the epoch-marked dense scratch:
                // victim -= mult · pivot_row.
                epoch = epoch.wrapping_add(1);
                if epoch == 0 {
                    mark.fill(0);
                    epoch = 1;
                }
                let vrow = std::mem::take(&mut rows[victim as usize]);
                for &(s, v) in &vrow {
                    dense[s as usize] = v;
                    mark[s as usize] = epoch;
                }
                let mut added: Vec<u32> = Vec::new();
                for &(s, v) in &pivot_entries {
                    if s == pslot {
                        continue;
                    }
                    let su = s as usize;
                    if mark[su] == epoch {
                        dense[su] -= mult * v;
                    } else {
                        dense[su] = -mult * v;
                        mark[su] = epoch;
                        added.push(s);
                    }
                }
                // Merge survivors with the (sorted) fill-in so the row
                // stays sorted by slot.
                added.sort_unstable();
                let mut new_row: Vec<(u32, f64)> = Vec::with_capacity(vrow.len() + added.len());
                let mut ai = 0;
                let take_fill =
                    |s: u32,
                     new_row: &mut Vec<(u32, f64)>,
                     col_rows: &mut Vec<Vec<u32>>,
                     heap: &mut BinaryHeap<Reverse<(u32, u32)>>| {
                        let v = dense[s as usize];
                        if v.abs() > DROP_EPS {
                            new_row.push((s, v));
                            // Fill-in: record the new pattern entry and bump
                            // the column back up the heap.
                            col_rows[s as usize].push(victim);
                            heap.push(Reverse((col_rows[s as usize].len() as u32, s)));
                        }
                    };
                for &(s, _) in &vrow {
                    if s == pslot {
                        continue; // eliminated: became the L multiplier
                    }
                    while ai < added.len() && added[ai] < s {
                        take_fill(added[ai], &mut new_row, &mut col_rows, &mut heap);
                        ai += 1;
                    }
                    let v = dense[s as usize];
                    if v.abs() > DROP_EPS {
                        new_row.push((s, v));
                    }
                }
                for &s in &added[ai..] {
                    take_fill(s, &mut new_row, &mut col_rows, &mut heap);
                }
                rows[victim as usize] = new_row;
            }
            out.l_starts.push(out.l_rows.len() as u32);
            row_active[prow as usize] = false;
            col_active[pslot as usize] = false;
        }

        // Build the transposed U (by column step) for BTRAN: U row k's
        // entry at slot s lands in column step_of_slot[s].
        let mut step_of_slot = vec![0u32; m];
        for (k, &s) in out.pivot_slot.iter().enumerate() {
            step_of_slot[s as usize] = k as u32;
        }
        let mut ut_cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for k in 0..m {
            let (a, b) = (out.u_starts[k] as usize, out.u_starts[k + 1] as usize);
            for e in a..b {
                let l = step_of_slot[out.u_slots[e] as usize] as usize;
                ut_cols[l].push((k as u32, out.u_vals[e]));
            }
        }
        out.ut_starts = Vec::with_capacity(m + 1);
        out.ut_starts.push(0);
        for col in &ut_cols {
            for &(k, v) in col {
                out.ut_steps.push(k);
                out.ut_vals.push(v);
            }
            out.ut_starts.push(out.ut_steps.len() as u32);
        }
        Ok(out)
    }

    /// Solve `B·x = b` in place: `x` arrives indexed by constraint row
    /// (the right-hand side) and leaves indexed by basis slot. `work`
    /// is caller-provided scratch of length `m`.
    pub(crate) fn ftran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        debug_assert!(x.len() == m && work.len() == m);
        // Forward elimination: replay the L operations.
        for k in 0..m {
            let t = x[self.pivot_row[k] as usize];
            if t != 0.0 {
                let (a, b) = (self.l_starts[k] as usize, self.l_starts[k + 1] as usize);
                for e in a..b {
                    x[self.l_rows[e] as usize] -= self.l_vals[e] * t;
                }
            }
        }
        // Back substitution on U, writing slot-indexed results: step k's
        // off-diagonals reference slots of later (already solved) steps.
        for k in (0..m).rev() {
            let mut t = x[self.pivot_row[k] as usize];
            let (a, b) = (self.u_starts[k] as usize, self.u_starts[k + 1] as usize);
            for e in a..b {
                t -= self.u_vals[e] * work[self.u_slots[e] as usize];
            }
            work[self.pivot_slot[k] as usize] = over_pivot(t, self.u_diag[k]);
        }
        x.copy_from_slice(work);
    }

    /// Solve `Bᵀ·y = c` in place: `x` arrives indexed by basis slot
    /// (costs of the basic variables) and leaves indexed by constraint
    /// row. `work` is caller-provided scratch of length `m`.
    pub(crate) fn btran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        debug_assert!(x.len() == m && work.len() == m);
        // Forward substitution on Uᵀ into step-indexed scratch.
        for k in 0..m {
            let mut t = x[self.pivot_slot[k] as usize];
            let (a, b) = (self.ut_starts[k] as usize, self.ut_starts[k + 1] as usize);
            for e in a..b {
                t -= self.ut_vals[e] * work[self.ut_steps[e] as usize];
            }
            work[k] = over_pivot(t, self.u_diag[k]);
        }
        // Scatter to constraint rows, then replay Lᵀ backwards.
        for k in 0..m {
            x[self.pivot_row[k] as usize] = work[k];
        }
        for k in (0..m).rev() {
            let (a, b) = (self.l_starts[k] as usize, self.l_starts[k + 1] as usize);
            let mut t = x[self.pivot_row[k] as usize];
            for e in a..b {
                t -= self.l_vals[e] * x[self.l_rows[e] as usize];
            }
            x[self.pivot_row[k] as usize] = t;
        }
    }
}

/// `t / pivot`, without the division when the pivot is exactly 1.0
/// (`t / 1.0 == t` for every `f64`).
#[inline]
fn over_pivot(t: f64, pivot: f64) -> f64 {
    if pivot == 1.0 {
        t
    } else {
        t / pivot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(u32, f64)>> {
        let m = a.len();
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i as u32, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[&[f64]], y: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * y[i]).sum())
            .collect()
    }

    fn check_solves(a: &[&[f64]]) {
        let m = a.len();
        let lu = LuFactors::factorize(m, &dense_cols(a)).expect("nonsingular");
        let mut work = vec![0.0; m];
        // FTRAN: pick x, form b = A x, solve, compare.
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let mut b = mat_vec(a, &x_true);
        lu.ftran(&mut b, &mut work);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "ftran {got} vs {want}");
        }
        // BTRAN: pick y, form c = Aᵀ y, solve, compare.
        let y_true: Vec<f64> = (0..m).map(|i| 0.5 * (i as f64) + 0.25).collect();
        let mut c = mat_t_vec(a, &y_true);
        lu.btran(&mut c, &mut work);
        for (got, want) in c.iter().zip(&y_true) {
            assert!((got - want).abs() < 1e-9, "btran {got} vs {want}");
        }
    }

    #[test]
    fn identity_and_permutation() {
        check_solves(&[&[1.0, 0.0], &[0.0, 1.0]]);
        check_solves(&[&[0.0, 2.0, 0.0], &[0.0, 0.0, 3.0], &[4.0, 0.0, 0.0]]);
    }

    #[test]
    fn dense_and_fill_in() {
        check_solves(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 4.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 1.0],
            &[2.0, 0.0, 1.0, 4.0],
        ]);
        check_solves(&[&[1e-3, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, -1.0]]);
    }

    #[test]
    fn empty_basis() {
        let lu = LuFactors::factorize(0, &[]).expect("empty is nonsingular");
        lu.ftran(&mut [], &mut []);
        lu.btran(&mut [], &mut []);
        assert!(lu.l_vals.is_empty() && lu.u_vals.is_empty());
    }

    /// SplitMix64 stream in [0, 1).
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    }

    #[test]
    fn unit_bases_skip_markowitz_with_identical_factors() {
        let mut state = 7u64;
        for m in [1usize, 2, 5, 17, 40] {
            for _ in 0..20 {
                // A random signed permutation with magnitudes from 1e-3
                // to 1e3 (logical and artificial columns are ±1).
                let mut rows: Vec<u32> = (0..m as u32).collect();
                for i in (1..m).rev() {
                    let j = (uniform(&mut state) * (i + 1) as f64) as usize;
                    rows.swap(i, j);
                }
                let cols: Vec<Vec<(u32, f64)>> = rows
                    .iter()
                    .map(|&r| {
                        let mag = 10f64.powf(6.0 * uniform(&mut state) - 3.0);
                        let sign = if uniform(&mut state) < 0.5 { -1.0 } else { 1.0 };
                        vec![(r, sign * mag)]
                    })
                    .collect();
                let unit = LuFactors::unit(m, &cols).expect("a signed permutation is a unit basis");
                let markowitz = LuFactors::markowitz(m, &cols).expect("nonsingular");
                assert_eq!(unit, markowitz, "m = {m}, rows {rows:?}");
                assert_eq!(LuFactors::factorize(m, &cols).unwrap(), markowitz);

                // One two-entry column is not a unit basis: factorize
                // falls back to Markowitz.
                if m > 1 {
                    let mut wide = cols.clone();
                    let other = (wide[0][0].0 + 1) % m as u32;
                    wide[0].push((other, 0.5));
                    assert!(LuFactors::unit(m, &wide).is_none());
                    assert_eq!(
                        LuFactors::factorize(m, &wide).unwrap(),
                        LuFactors::markowitz(m, &wide).unwrap()
                    );
                }
            }
        }
        // Explicit zeros do not count as entries.
        let cols = vec![vec![(1u32, 0.0), (0, 2.0)], vec![(1, -3.0)]];
        assert_eq!(
            LuFactors::unit(2, &cols),
            Some(LuFactors::markowitz(2, &cols).unwrap())
        );
    }

    /// FTRAN and BTRAN as they were before the unit-pivot shortcut:
    /// every pivot divides.
    fn solves_by_division(lu: &LuFactors, b: &[f64], c: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let m = lu.m;
        let (mut x, mut work) = (b.to_vec(), vec![0.0; m]);
        for k in 0..m {
            let t = x[lu.pivot_row[k] as usize];
            if t != 0.0 {
                for e in lu.l_starts[k] as usize..lu.l_starts[k + 1] as usize {
                    x[lu.l_rows[e] as usize] -= lu.l_vals[e] * t;
                }
            }
        }
        for k in (0..m).rev() {
            let mut t = x[lu.pivot_row[k] as usize];
            for e in lu.u_starts[k] as usize..lu.u_starts[k + 1] as usize {
                t -= lu.u_vals[e] * work[lu.u_slots[e] as usize];
            }
            work[lu.pivot_slot[k] as usize] = t / lu.u_diag[k];
        }
        let ftran = work.clone();
        let mut y = c.to_vec();
        for k in 0..m {
            let mut t = y[lu.pivot_slot[k] as usize];
            for e in lu.ut_starts[k] as usize..lu.ut_starts[k + 1] as usize {
                t -= lu.ut_vals[e] * work[lu.ut_steps[e] as usize];
            }
            work[k] = t / lu.u_diag[k];
        }
        for k in 0..m {
            y[lu.pivot_row[k] as usize] = work[k];
        }
        for k in (0..m).rev() {
            let mut t = y[lu.pivot_row[k] as usize];
            for e in lu.l_starts[k] as usize..lu.l_starts[k + 1] as usize {
                t -= lu.l_vals[e] * y[lu.l_rows[e] as usize];
            }
            y[lu.pivot_row[k] as usize] = t;
        }
        (ftran, y)
    }

    #[test]
    fn unit_pivots_solve_bit_for_bit_as_division() {
        // Random sparse bases whose entries are mostly exactly ±1 (as
        // logical columns and placement binaries are), so their factors
        // mix pivots of 1.0, −1.0 and other values.
        let mut state = 11u64;
        let mut unit_pivots = 0;
        let mut other_pivots = 0;
        for m in [1usize, 3, 8, 20, 45] {
            for _ in 0..25 {
                let cols: Vec<Vec<(u32, f64)>> = (0..m)
                    .map(|slot| {
                        let mut col = vec![(slot as u32, 1.0)];
                        for r in 0..m {
                            if r != slot && uniform(&mut state) < 3.0 / m as f64 {
                                let u = uniform(&mut state);
                                let v = if u < 0.4 {
                                    1.0
                                } else if u < 0.6 {
                                    -1.0
                                } else {
                                    (8.0 * u - 5.0) * 0.37
                                };
                                col.push((r as u32, v));
                            }
                        }
                        col
                    })
                    .collect();
                let Ok(lu) = LuFactors::factorize(m, &cols) else {
                    continue;
                };
                unit_pivots += lu.u_diag.iter().filter(|&&p| p == 1.0).count();
                other_pivots += lu.u_diag.iter().filter(|&&p| p != 1.0).count();
                let b: Vec<f64> = (0..m).map(|_| uniform(&mut state) * 10.0 - 3.0).collect();
                let c: Vec<f64> = (0..m).map(|_| uniform(&mut state) - 0.5).collect();
                let (want_x, want_y) = solves_by_division(&lu, &b, &c);
                let mut work = vec![0.0; m];
                let (mut x, mut y) = (b.clone(), c.clone());
                lu.ftran(&mut x, &mut work);
                lu.btran(&mut y, &mut work);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&want_x), "FTRAN, m = {m}");
                assert_eq!(bits(&y), bits(&want_y), "BTRAN, m = {m}");
            }
        }
        assert!(
            unit_pivots > 100 && other_pivots > 100,
            "{unit_pivots} unit, {other_pivots} other pivots"
        );
    }

    #[test]
    fn singular_unit_shaped_bases_are_rejected_by_markowitz() {
        // Two unit columns on one row, and a pivot below the floor.
        for cols in [
            vec![vec![(0u32, 1.0)], vec![(0u32, 1.0)]],
            vec![vec![(0u32, 1.0)], vec![(1u32, 1e-12)]],
        ] {
            assert!(LuFactors::unit(2, &cols).is_none());
            assert!(LuFactors::factorize(2, &cols).is_err());
        }
    }

    #[test]
    fn singular_is_rejected() {
        // Duplicate columns.
        let a: &[&[f64]] = &[&[1.0, 1.0], &[2.0, 2.0]];
        assert!(
            LuFactors::factorize(2, &dense_cols(a)).is_err(),
            "rank-1 matrix must not factorize"
        );
        // A structurally empty column.
        let cols = vec![vec![(0u32, 1.0)], vec![]];
        assert!(LuFactors::factorize(2, &cols).is_err());
    }
}
