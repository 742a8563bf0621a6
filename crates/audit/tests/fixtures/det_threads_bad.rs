//! thread-derived positive: worker-count sources anywhere in a library
//! file — a module-level `use`, a method body and a helper nothing
//! calls. The same probe in test code passes.

use std::thread::available_parallelism;

pub struct GroupSim {
    shard: usize,
}

impl GroupSim {
    pub fn run(&mut self) -> usize {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let hint = option_env!("VB_THREADS").is_some() as usize;
        self.shard = (self.shard + 1) % (workers + hint);
        self.shard
    }
}

fn unreferenced_probe() -> usize {
    available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn probes() {
        let _ = std::thread::available_parallelism();
    }
}
