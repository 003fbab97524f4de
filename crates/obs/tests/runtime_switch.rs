//! Exercises the global runtime recording switch in its own process so
//! toggling it cannot race the crate's unit tests.

use airfinger_obs::{global, set_recording, Span};

#[test]
fn disabled_registry_short_circuits() {
    let counter = airfinger_obs::counter("switch_events_total");
    let histogram = airfinger_obs::histogram("switch_seconds");

    counter.inc();
    histogram.record(500);
    let live = airfinger_obs::recording();
    assert_eq!(live, cfg!(feature = "obs"));
    let baseline = counter.value();
    assert_eq!(baseline, u64::from(live));

    set_recording(false);
    assert!(!airfinger_obs::recording());
    counter.add(10);
    histogram.record(500);
    {
        let span = airfinger_obs::span_with("switch_span_seconds", &[("id", "off")]);
        assert_eq!(
            span.elapsed_s(),
            0.0,
            "disabled span must not read the clock"
        );
    }
    {
        let _span = Span::from_histogram(histogram.clone(), "direct");
    }
    assert_eq!(counter.value(), baseline, "counter recorded while disabled");
    assert_eq!(
        histogram.count(),
        u64::from(live),
        "histogram recorded while disabled"
    );

    set_recording(true);
    counter.inc();
    histogram.record(250);
    if cfg!(feature = "obs") {
        assert_eq!(counter.value(), baseline + 1);
        assert_eq!(histogram.count(), 2);
        let snap = global().snapshot();
        assert_eq!(
            snap.counter_value("switch_events_total", &[]),
            Some(baseline + 1)
        );
    } else {
        // Without the compiled feature the runtime switch is irrelevant:
        // everything stays at zero.
        assert_eq!(counter.value(), 0);
        assert_eq!(histogram.count(), 0);
    }
}
