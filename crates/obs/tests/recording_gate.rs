//! Turns the global recording switch off in its own process, so the
//! toggle cannot race other tests, and checks that a bare histogram
//! honours it.

use airfinger_obs::{set_recording, Histogram};

#[test]
fn histogram_ignores_records_while_recording_is_off() {
    let h = Histogram::new();
    let was = airfinger_obs::recording();
    set_recording(false);
    h.record(99);
    set_recording(was);
    assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
    h.record(99);
    assert_eq!(h.count(), u64::from(cfg!(feature = "obs")));
}
