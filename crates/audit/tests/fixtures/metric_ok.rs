//! Negative fixture: declared names used under their declared kinds.

pub fn tick(n: f64) {
    let _span = vb_telemetry::span!("fixture.step");
    vb_telemetry::counter!("fixture.ticks").inc();
    vb_telemetry::float_counter!("fixture.volume_gb").add(n);
    vb_telemetry::float_counter!("fixture.level").add(n);
    vb_telemetry::histogram!("fixture.latency_ms").record(n);
    vb_telemetry::event("fixture.done", &[]);
}
