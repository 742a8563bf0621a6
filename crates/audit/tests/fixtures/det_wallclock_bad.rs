//! wallclock-in-logic positive: wall-clock reads anywhere in a library
//! file — a module-level `use`, a method body and a helper nothing
//! calls. The same read in test code passes.

use std::time::SystemTime;

pub struct Policy;

impl Policy {
    pub fn plan(&self, steps: u64) -> u64 {
        let t0 = std::time::Instant::now();
        let out = steps * 2;
        let _elapsed = t0.elapsed();
        out
    }
}

fn unreferenced_profile(steps: u64) -> f64 {
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..steps {
        acc = acc.wrapping_add(i);
    }
    let _ = acc;
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timed() {
        let _t0 = std::time::Instant::now();
    }
}
