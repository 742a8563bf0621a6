//! env-read positive: configuration pulled from the environment
//! anywhere in a library file — a solve entry point and a helper
//! nothing calls. The same read in test code passes.

pub fn solve_mip_kernel(budget: u64) -> u64 {
    let relax = std::env::var("FIXTURE_RELAX").is_ok();
    if relax {
        budget / 2
    } else {
        budget
    }
}

fn unreferenced_debug_flag() -> bool {
    std::env::var("FIXTURE_DEBUG").is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_env() {
        let _ = std::env::var("FIXTURE_TEST");
    }
}
