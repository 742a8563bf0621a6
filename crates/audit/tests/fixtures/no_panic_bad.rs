//! Positive fixture: every panic pathway `no-panic` must flag.

pub fn first(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

pub fn labelled(xs: &[f64]) -> f64 {
    *xs.last().expect("non-empty")
}

pub fn boom() {
    panic!("unreachable by construction");
}

pub fn named(x: Option<f64>) -> f64 {
    x.unwrap()
}

pub fn victim(victim: Option<usize>) -> usize {
    victim.expect("candidate server has a victim")
}
