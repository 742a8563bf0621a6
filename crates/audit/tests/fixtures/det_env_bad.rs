//! env-read positive: configuration pulled from the environment inside
//! a solve entry point.

pub fn solve_mip_kernel(budget: u64) -> u64 {
    let relax = std::env::var("FIXTURE_RELAX").is_ok();
    if relax {
        budget / 2
    } else {
        budget
    }
}
