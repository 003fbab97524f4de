//! Failure injection: the pipeline must degrade gracefully — never panic,
//! never emit nonsense — on pathological inputs: saturated ADCs, dead
//! photodiodes, constant traces, spike storms, direct IR remotes.

use airfinger_core::events::Recognition;
use airfinger_nir_sim::ambient::Interference;
use airfinger_nir_sim::noise::NoiseModel;
use airfinger_nir_sim::sampler::{Sampler, Scene};
use airfinger_nir_sim::trace::RssTrace;
use airfinger_nir_sim::{SensorLayout, Vec3};
use airfinger_tests::trained_pipeline;

#[test]
fn saturated_trace_does_not_panic() {
    let (af, _) = trained_pipeline(61);
    let trace = RssTrace::from_channels(vec![vec![1023.0; 300]; 3], 100.0);
    let events = af.recognize_trace(&trace).expect("no error on saturation");
    assert!(events.is_empty(), "a flat saturated trace holds no gesture");
}

#[test]
fn all_zero_trace_does_not_panic() {
    let (af, _) = trained_pipeline(62);
    let trace = RssTrace::from_channels(vec![vec![0.0; 300]; 3], 100.0);
    assert!(af.recognize_trace(&trace).expect("no error").is_empty());
}

#[test]
fn tiny_trace_does_not_panic() {
    let (af, _) = trained_pipeline(63);
    let trace = RssTrace::from_channels(vec![vec![100.0]; 3], 100.0);
    let _ = af
        .recognize_trace(&trace)
        .expect("no error on 1-sample trace");
    // primary_window falls back to the whole (1-sample) trace.
    let _ = af.recognize_primary(&trace).expect("no error");
}

#[test]
fn dead_photodiode_still_recognizes_something() {
    // Channel 2 stuck at zero (broken wire): the pipeline must not panic
    // and should still segment activity on the live channels.
    let (af, corpus) = trained_pipeline(64);
    let sample = &corpus.samples()[2];
    let mut channels = sample.trace.channels().to_vec();
    channels[2] = vec![0.0; channels[2].len()];
    let trace = RssTrace::from_channels(channels, sample.trace.sample_rate_hz());
    let events = af
        .recognize_trace(&trace)
        .expect("no error with dead channel");
    // Whatever the classification, every event must carry a valid segment.
    for e in &events {
        let seg = e.segment();
        assert!(seg.end <= trace.len() && seg.start < seg.end);
    }
}

#[test]
fn spike_storm_is_mostly_filtered() {
    // Hardware spike storm on an idle scene: 30 spikes in 10 s. Isolated
    // spikes are debounced away; only chance clusters within the t_e merge
    // window can survive, so far fewer windows than spikes may appear, and
    // every surviving window must be brief.
    let (af, _) = trained_pipeline(65);
    let scene = Scene::new(SensorLayout::paper_prototype()).with_noise(NoiseModel {
        shot_coeff: 0.0,
        thermal_sigma: 0.5,
        spike_rate_hz: 3.0,
        spike_amplitude: 120.0,
    });
    let trace = Sampler::new(scene, 100.0).sample(10.0, 65, |_| Some(Vec3::new(0.0, 0.0, 0.02)));
    let events = af.recognize_trace(&trace).expect("no error under spikes");
    assert!(
        events.len() <= 12,
        "spike storm produced {} windows",
        events.len()
    );
    for e in &events {
        assert!(
            e.segment().len() < 100,
            "spike window too long: {:?}",
            e.segment()
        );
    }
}

#[test]
fn direct_ir_remote_errors_are_bounded() {
    // The paper: a directly-pointed remote "will cause recognition
    // errors" — we require graceful behaviour, not correctness: no panic,
    // and segments within bounds.
    let (af, _) = trained_pipeline(66);
    let scene = Scene::new(SensorLayout::paper_prototype())
        .with_interference(Interference::ir_remote_direct());
    let trace = Sampler::new(scene, 100.0).sample(10.0, 66, |_| Some(Vec3::new(0.0, 0.0, 0.02)));
    let events = af
        .recognize_trace(&trace)
        .expect("no error under remote bursts");
    for e in &events {
        assert!(e.segment().end <= trace.len());
    }
}

#[test]
fn nan_free_features_even_on_adversarial_windows() {
    use airfinger_core::detect::prepare_features;
    use airfinger_core::processing::GestureWindow;
    use airfinger_dsp::segment::Segment;
    use airfinger_features::FeatureExtractor;
    let e = FeatureExtractor::table1();
    for channels in [
        vec![vec![0.0; 3]; 3],                                   // nearly empty
        vec![vec![1023.0; 50]; 3],                               // constant saturation
        vec![vec![0.0; 200], vec![1e12; 200], vec![-1e12; 200]], // absurd values
    ] {
        let n = channels[0].len();
        let w = GestureWindow {
            segment: Segment::new(0, n),
            raw: channels.clone(),
            delta: channels,
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        };
        let f = prepare_features(&e, &w);
        assert!(f.iter().all(|v| v.is_finite()), "non-finite feature");
    }
}

#[test]
fn rejected_windows_never_classify() {
    // A pipeline with a filter must emit Rejected (not a bogus gesture)
    // for obviously non-gestural bursts.
    use airfinger_core::pipeline::AirFinger;
    use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, CorpusSpec};
    use airfinger_tests::{small_spec, test_config};
    let spec = small_spec(67);
    let gestures = generate_corpus(&spec);
    let non = generate_nongesture_corpus(&CorpusSpec { reps: 12, ..spec });
    let mut af = AirFinger::new(test_config());
    af.train_on_corpus(&gestures, Some(&non)).expect("training");
    let scene = Scene::new(SensorLayout::paper_prototype());
    // A slow, large hand wave far above the board (out-of-band motion).
    let trace = Sampler::new(scene, 100.0).sample(4.0, 67, |t| {
        Some(Vec3::new(0.05 * (t * 0.8).sin(), 0.0, 0.06))
    });
    let events = af.recognize_trace(&trace).expect("no error");
    let accepted = events.iter().filter(|e| e.is_accepted()).count();
    let rejected = events
        .iter()
        .filter(|e| matches!(e, Recognition::Rejected { .. }))
        .count();
    assert!(
        accepted <= rejected + 1,
        "wave accepted {accepted} times vs rejected {rejected}"
    );
}

/// NaN and ±inf readings are rejected at `push` before they touch any
/// engine state: a clean stream with non-finite samples inserted between
/// its samples yields exactly the clean stream's recognitions, and every
/// inserted sample is counted under
/// `engine_samples_rejected_total{reason="non_finite"}`.
#[test]
fn non_finite_samples_are_rejected_without_changing_recognitions() {
    use airfinger_core::engine::StreamingEngine;
    use airfinger_core::error::AirFingerError;
    use airfinger_synth::session::{generate_session, SessionSpec};

    let (af, _) = trained_pipeline(67);
    let trace = generate_session(&SessionSpec {
        samples: 2_500,
        seed: 67,
        ..Default::default()
    });
    let sample_at = |i: usize| [0, 1, 2].map(|k| trace.channel(k)[i]);
    let rejected = || {
        airfinger_obs::global()
            .snapshot()
            .counter_value("engine_samples_rejected_total", &[("reason", "non_finite")])
            .unwrap_or(0)
    };

    let mut clean = StreamingEngine::new(af.clone(), 3).expect("engine builds");
    let mut expected = Vec::new();
    for i in 0..trace.len() {
        if let Some(event) = clean.push(&sample_at(i)).expect("clean push") {
            expected.push(event);
        }
    }
    assert!(!expected.is_empty(), "the clean session holds gestures");

    let mut engine = StreamingEngine::new(af, 3).expect("engine builds");
    let before = rejected();
    let mut inserted = 0u64;
    let mut got = Vec::new();
    for i in 0..trace.len() {
        if i % 7 == 3 {
            // Rotate the bad value and the channel it lands on.
            let mut bad = sample_at(i);
            bad[i % 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(i / 7) % 3];
            assert!(matches!(
                engine.push(&bad),
                Err(AirFingerError::InvalidTrainingData(_))
            ));
            inserted += 1;
        }
        if let Some(event) = engine.push(&sample_at(i)).expect("clean push") {
            got.push(event);
        }
    }
    assert_eq!(got, expected, "non-finite samples changed the recognitions");
    if airfinger_obs::recording() {
        assert_eq!(rejected() - before, inserted);
    }
}
