//! FTRAN/BTRAN through an LU factorization plus a product-form eta file.
//!
//! After a basis change (column `q` replaces the basic variable of slot
//! `r`), the new basis is `B' = B·E` where `E` is the identity with its
//! `r`-th column replaced by the FTRAN'd entering column `d̂ = B⁻¹a_q`.
//! Rather than refactorize per pivot, [`BasisFactor`] appends `E` to an
//! **eta file** and composes it into every solve:
//!
//! * FTRAN `B'⁻¹b`: solve through the LU factors, then apply each eta
//!   in order — `x_r ← x_r / d̂_r`, `x_i ← x_i − d̂_i·x_r`.
//! * BTRAN `B'⁻ᵀc`: apply the transposed etas in *reverse* order —
//!   `y_r ← (y_r − Σ_{i≠r} d̂_i·y_i) / d̂_r` — then solve through the
//!   LU factors.
//!
//! The file is truncated by [`crate::revised`]'s refactorization policy
//! (update count, a stability trigger, or branch and bound's root
//! refresh); each eta costs `O(nnz(d̂))` per solve, so a bounded file
//! keeps solves near the factors' cost. [`BasisFactor::eta_nnz`] is
//! that per-solve replay cost.
//!
//! Branch and bound clones a node's state for each child, so both the
//! LU factors and every eta are immutable once built and shared through
//! `Arc`: a clone copies one pointer per eta, a child's pivots append
//! etas only to its own file, and a refactorization swaps the factor
//! pointer without touching the states that still hold the old one.
//!
//! An eta is one exact-size `Arc<[(u32, f64)]>`: entry 0 is the header
//! `(r, d̂_r)` and the rest are the off-pivot `(row, d̂_i)` nonzeros,
//! gathered in a per-thread buffer and copied out in one allocation. A
//! clone reserves room for `ETA_RESERVE` more etas, so a child's own
//! pivots do not regrow the file it inherited.

use crate::factor::LuFactors;
use crate::tolerance::DROP_EPS;
use std::cell::RefCell;
use std::sync::Arc;

/// Room a clone reserves for etas of its own: a warm re-solve below a
/// branch-and-bound node appends about two.
const ETA_RESERVE: usize = 4;

/// One product-form update: slot `r` was repivoted on column `d̂` with
/// pivot `d̂_r`. Entry 0 is `(r, d̂_r)`; the rest are the off-pivot
/// nonzeros `(i, d̂_i)` in row order.
type Eta = Arc<[(u32, f64)]>;

thread_local! {
    /// Triangular-solve scratch, one per thread and reused by every
    /// solve on it: the factors and etas are shared between states, so
    /// the buffer cannot live in any one of them.
    static WORK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Gather buffer for a new eta's entries, copied out once at its
    /// exact size.
    static ETA_BUF: RefCell<Vec<(u32, f64)>> = const { RefCell::new(Vec::new()) };
}

/// An LU factorization composed with the eta file accumulated since the
/// last refactorization. Solves are allocation-free once the calling
/// thread's scratch has grown to the basis dimension.
#[derive(Debug, Default)]
pub(crate) struct BasisFactor {
    lu: Arc<LuFactors>,
    etas: Vec<Eta>,
    /// Off-pivot nonzeros summed over `etas`.
    eta_nnz: u64,
}

impl Clone for BasisFactor {
    /// Share the factors and every eta, with room for the clone's own
    /// etas.
    fn clone(&self) -> BasisFactor {
        let mut etas = Vec::with_capacity(self.etas.len() + ETA_RESERVE);
        etas.extend(self.etas.iter().cloned());
        BasisFactor {
            lu: Arc::clone(&self.lu),
            etas,
            eta_nnz: self.eta_nnz,
        }
    }
}

impl BasisFactor {
    /// Wrap a fresh factorization (empty eta file).
    pub(crate) fn new(lu: LuFactors) -> BasisFactor {
        BasisFactor {
            lu: Arc::new(lu),
            etas: Vec::new(),
            eta_nnz: 0,
        }
    }

    /// Updates applied since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Off-pivot nonzeros of the eta file: the entries every FTRAN and
    /// every BTRAN replays on top of the LU solve.
    pub(crate) fn eta_nnz(&self) -> u64 {
        self.eta_nnz
    }

    /// Whether `self` and `other` read the same LU storage.
    #[cfg(test)]
    pub(crate) fn shares_lu_with(&self, other: &BasisFactor) -> bool {
        Arc::ptr_eq(&self.lu, &other.lu)
    }

    /// Record the pivot `(slot r, entering column d̂ = B⁻¹a_q)`.
    pub(crate) fn push_eta(&mut self, r: usize, ecol: &[f64]) {
        let eta: Eta = ETA_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            buf.push((r as u32, ecol[r]));
            for (i, &v) in ecol.iter().enumerate() {
                if i != r && v.abs() > DROP_EPS {
                    buf.push((i as u32, v));
                }
            }
            Arc::from(&buf[..])
        });
        self.eta_nnz += eta.len() as u64 - 1;
        self.etas.push(eta);
    }

    /// Solve `B·x = b` in place (`x`: constraint-row indexed in, basis
    /// slot indexed out). Returns the result's nonzero count.
    pub(crate) fn ftran(&self, x: &mut [f64]) -> u64 {
        with_work(x.len(), |work| self.lu.ftran(x, work));
        for eta in &self.etas {
            let (r, pivot) = eta[0];
            let r = r as usize;
            let t = x[r] / pivot;
            x[r] = t;
            if t != 0.0 {
                for &(i, v) in &eta[1..] {
                    x[i as usize] -= v * t;
                }
            }
        }
        nnz_of(x)
    }

    /// Solve `Bᵀ·y = c` in place (`x`: basis slot indexed in,
    /// constraint-row indexed out). Returns the result's nonzero count.
    pub(crate) fn btran(&self, x: &mut [f64]) -> u64 {
        for eta in self.etas.iter().rev() {
            let (r, pivot) = eta[0];
            let r = r as usize;
            let mut t = x[r];
            for &(i, v) in &eta[1..] {
                t -= v * x[i as usize];
            }
            x[r] = t / pivot;
        }
        with_work(x.len(), |work| self.lu.btran(x, work));
        nnz_of(x)
    }
}

/// Run `f` on this thread's triangular-solve scratch, sized `m`. The LU
/// solves write every entry before reading it, so its previous contents
/// never reach a result.
fn with_work(m: usize, f: impl FnOnce(&mut [f64])) {
    WORK.with(|w| {
        let mut w = w.borrow_mut();
        w.resize(m, 0.0);
        f(&mut w);
    });
}

fn nnz_of(x: &[f64]) -> u64 {
    x.iter().filter(|v| v.abs() > DROP_EPS).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// B = I (2×2), then pivot slot 0 on a column d̂ = (2, 1)ᵀ: the new
    /// basis is B' = [[2, 0], [1, 1]].
    fn updated_basis() -> BasisFactor {
        let cols = vec![vec![(0u32, 1.0)], vec![(1u32, 1.0)]];
        let lu = LuFactors::factorize(2, &cols).unwrap();
        let mut bf = BasisFactor::new(lu);
        bf.push_eta(0, &[2.0, 1.0]);
        bf
    }

    #[test]
    fn eta_ftran_matches_direct_solve() {
        let bf = updated_basis();
        assert_eq!(bf.eta_nnz(), 1, "one off-pivot entry, d̂_1");
        // Solve B'x = (4, 5)ᵀ → x = (2, 3)ᵀ.
        let mut x = [4.0, 5.0];
        let nnz = bf.ftran(&mut x);
        assert_eq!(nnz, 2);
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eta_btran_matches_direct_solve() {
        let bf = updated_basis();
        // Solve B'ᵀy = (7, 3)ᵀ; B'ᵀ = [[2, 1], [0, 1]] → y = (2, 3)ᵀ.
        let mut y = [7.0, 3.0];
        let nnz = bf.btran(&mut y);
        assert_eq!(nnz, 2);
        assert!((y[0] - 2.0).abs() < 1e-12 && (y[1] - 3.0).abs() < 1e-12);
    }
}
