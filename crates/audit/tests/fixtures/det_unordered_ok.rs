//! unordered-iter negative: ordered containers, a reasoned allow, and
//! test code all pass.

use std::collections::BTreeMap;

pub fn run_fleet(n: u64) -> u64 {
    let mut last = BTreeMap::new();
    last.insert(n, n);
    // vb-audit: allow(unordered-iter, drained into a sorted Vec before any iteration)
    let cache = std::collections::HashMap::<u64, u64>::new();
    last.len() as u64 + cache.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let mut m = std::collections::HashMap::new();
        m.insert(1u64, 1u64);
        assert_eq!(m.len(), 1);
    }
}
