//! unordered-iter positive: HashMap/HashSet anywhere in a library file —
//! the module-level `use`, a function body, a signature, and a helper
//! nothing calls.

use std::collections::{HashMap, HashSet};

pub fn run_fleet(n: u64) -> u64 {
    let mut last = HashMap::new();
    for i in 0..n {
        last.insert(i, i);
    }
    helper(&last)
}

fn helper(m: &std::collections::HashMap<u64, u64>) -> u64 {
    let mut seen = HashSet::new();
    for (k, v) in m.iter() {
        seen.insert(k + v);
    }
    seen.len() as u64
}

fn unreferenced_cache(n: u64) -> u64 {
    let mut m = std::collections::HashMap::new();
    m.insert(n, n);
    m.len() as u64
}
