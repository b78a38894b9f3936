//! Spans live on the calling thread's event ring and nowhere else, so a
//! process that closes root spans forever — a serve daemon has telemetry
//! on for its whole life — holds a bounded number of them.
//!
//! One test per file: the rings and the collector are process-global.

use noodle_telemetry as telemetry;

#[test]
fn a_million_root_spans_leave_at_most_one_ring_of_records() {
    telemetry::set_sink(Box::new(telemetry::NullSink));
    telemetry::set_enabled(true);
    telemetry::reset();
    for _ in 0..1_000_000 {
        let _span = telemetry::span!("bounded.root");
    }
    let spans = telemetry::snapshot().spans;
    assert!(!spans.is_empty());
    assert!(
        spans.len() <= noodle_trace::ring_capacity(),
        "{} root spans retained, ring capacity {}",
        spans.len(),
        noodle_trace::ring_capacity()
    );
    assert!(spans.iter().all(|s| s.name == "bounded.root" && s.children.is_empty()));

    telemetry::reset();
    assert!(telemetry::snapshot().spans.is_empty(), "reset hides every closed span");
    {
        let _after = telemetry::span!("after.reset", n = 1);
    }
    let spans = telemetry::snapshot().spans;
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].attrs, vec![("n".to_string(), "1".to_string())]);
    telemetry::set_enabled(false);
}
