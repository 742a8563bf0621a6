//! Positive fixture: an undeclared counter, a kind mismatch (declared
//! as a float counter, used as a histogram), and a non-dot.snake name.

pub fn tick() {
    vb_telemetry::counter!("fixture.undeclared").inc();
    vb_telemetry::histogram!("fixture.level").record(1.0);
    vb_telemetry::counter!("BadName").inc();
}
