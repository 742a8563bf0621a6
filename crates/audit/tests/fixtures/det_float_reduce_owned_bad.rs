//! float-reduce-order positive: a lock taken inside an owned-items
//! parallel map combines in completion order too.

pub fn total_energy(shards: Vec<Vec<f64>>) -> f64 {
    let total = std::sync::Mutex::new(0.0);
    let _ = vb_par::par_map(shards, |shard| {
        let sum: f64 = shard.iter().sum();
        *total.lock().unwrap() += sum;
    });
    total.into_inner().unwrap()
}
