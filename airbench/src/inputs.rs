//! Seeded input generation for every workload.
//!
//! The synth/nir-sim crates are the load generator, not the system under
//! test: everything here is rendered before the clock starts, and the same
//! seed always yields the same samples, scripts and schedules.

use crate::matcher::Slot;
use airfinger_nir_sim::trace::RssTrace;
use airfinger_nir_sim::{Sampler, Scene, SensorLayout};
use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, Corpus, CorpusSpec};
use airfinger_synth::gesture::{Gesture, SampleLabel};
use airfinger_synth::profile::UserProfile;
use airfinger_synth::session::{generate_session, standard_fault_schedule, SessionSpec};
use airfinger_synth::trajectory::Trajectory;

/// ADC sample rate of every rendered stream.
pub const RATE_HZ: f64 = 100.0;
/// The matcher scores a stream up to this many samples before its end,
/// so every scored gesture had time to close its window.
pub const SCORE_TAIL: usize = 300;
/// Scripted gestures start this long after each cadence tick
/// (`generate_session`'s lead-in).
const LEAD_IN_S: f64 = 0.3;
/// Cadence of the gesture-dense sessions (the synth default).
const DENSE_PERIOD_S: f64 = 2.5;

/// SplitMix64: the benchmark's own seed expander, so sub-seeds never
/// depend on the system under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream)`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let _ = r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A sub-seed for one input stream of a run.
#[must_use]
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// Seed of the training corpus. Every run trains the same model — the
/// one a device would ship — so a seed changes the streams the pipeline
/// serves, not the pipeline itself.
const TRAINING_SEED: u64 = 0xA1F1_0001;

/// The training recipe: 2 users × 2 sessions × 10 reps of all eight
/// gestures plus 30 reps of each non-gesture.
#[must_use]
pub fn training_corpora() -> (Corpus, Corpus) {
    let spec = CorpusSpec {
        users: 2,
        sessions: 2,
        reps: 10,
        seed: TRAINING_SEED,
        ..CorpusSpec::default()
    };
    let non = CorpusSpec {
        reps: 30,
        ..spec.clone()
    };
    (generate_corpus(&spec), generate_nongesture_corpus(&non))
}

/// One rendered stream: interleaved samples plus its gesture script.
#[derive(Debug, Clone, PartialEq)]
pub struct Feed {
    /// Samples, `channels` values per sample.
    pub samples: Vec<f64>,
    /// Values per sample.
    pub channels: usize,
    /// Scripted gestures, sorted by start.
    pub slots: Vec<Slot>,
    /// Spliced motion episodes `[start, end)`, in samples.
    pub episodes: Vec<(usize, usize)>,
}

impl Feed {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len() / self.channels.max(1)
    }

    /// Sample `i`, one value per channel.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.samples[i * self.channels..(i + 1) * self.channels]
    }

    fn from_trace(trace: &RssTrace, slots: Vec<Slot>) -> Self {
        let channels = trace.channel_count();
        let mut samples = Vec::with_capacity(trace.len() * channels);
        for i in 0..trace.len() {
            samples.extend((0..channels).map(|k| trace.channel(k)[i]));
        }
        Feed {
            samples,
            channels,
            slots,
            episodes: Vec::new(),
        }
    }
}

/// The script `generate_session` follows: gesture `k` of the cycled set
/// starts at `k · period + 0.3 s`.
#[must_use]
pub fn session_slots(spec: &SessionSpec) -> Vec<Slot> {
    let period = spec.gesture_period_s.max(0.5);
    let count = (spec.duration_s() / period).floor() as usize;
    (0..count)
        .map(|k| Slot {
            start: ((k as f64 * period + LEAD_IN_S) * RATE_HZ).round() as usize,
            gesture: Gesture::ALL[k % Gesture::ALL.len()],
        })
        .collect()
}

fn render(spec: &SessionSpec) -> Feed {
    Feed::from_trace(&generate_session(spec), session_slots(spec))
}

/// Seed of the fixed user panel. Users' habits (speed, amplitude, hover
/// position, tilt, tremor) and each user's gesture trials come from it,
/// so every run meets the same volunteers making the same movements; the
/// run seed drives the sensor noise.
const PANEL_SEED: u64 = 0x41F1_6E12;

/// Render panel user `user` performing the `generate_session` script —
/// gesture `k` of the cycled set at `k · period + 0.3 s` — with the
/// user's fixed trials and sensor noise from `seed`. A `period` longer
/// than the stream renders rest only.
fn render_user(user: usize, seed: u64, samples: usize, period: f64) -> Feed {
    let spec = SessionSpec {
        samples,
        seed,
        user,
        gesture_period_s: period,
        ..SessionSpec::default()
    };
    let slots = session_slots(&spec);
    let profile = UserProfile::sample(user, PANEL_SEED);
    let trials = sub_seed(PANEL_SEED, user as u64);
    let rest = profile.base;
    let trajectories: Vec<(f64, Trajectory)> = slots
        .iter()
        .enumerate()
        .map(|(k, slot)| {
            let label = SampleLabel::Gesture(slot.gesture);
            let params = profile.trial_params(label, 0, k, trials);
            (
                slot.start as f64 / RATE_HZ,
                Trajectory::generate(label, &params, trials.wrapping_add(k as u64)),
            )
        })
        .collect();
    let trajectory = |t: f64| {
        for (start, traj) in &trajectories {
            if t >= *start && t < *start + traj.duration_s() {
                return traj.position(t - *start);
            }
        }
        Some(rest)
    };
    let scene = Scene::new(SensorLayout::paper_prototype());
    let trace = Sampler::new(scene, RATE_HZ).sample(spec.duration_s(), seed, trajectory);
    Feed::from_trace(&trace, slots)
}

/// Rendering threads: input generation happens before any clock starts,
/// so it may use both cores of the reference machine.
const RENDER_THREADS: usize = 2;

/// `f(0..n)` in order, computed on up to [`RENDER_THREADS`] threads.
fn par_render<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = RENDER_THREADS.min(n).max(1);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, v) in handle.join().expect("a render thread panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index was rendered"))
        .collect()
}

/// `solo-gestures`: `segments` sessions of `seconds` each at the default
/// 2.5 s cadence, each by a different panel user.
#[must_use]
pub fn gesture_pool(seed: u64, segments: usize, seconds: usize) -> Vec<Feed> {
    par_render(segments, |j| {
        render_user(
            j,
            sub_seed(seed, 100 + j as u64),
            seconds * RATE_HZ as usize,
            DENSE_PERIOD_S,
        )
    })
}

/// `solo-quiet`: sessions with one gesture every 30–60 s, long enough for
/// the full 8-gesture cycle. Each panel user keeps its period in every
/// run, so the pool's length (and with it the memory it takes) does not
/// depend on the seed.
#[must_use]
pub fn quiet_pool(seed: u64, segments: usize) -> Vec<Feed> {
    let mut rng = Rng::new(PANEL_SEED, 200);
    let periods: Vec<f64> = (0..segments).map(|_| rng.uniform(30.0, 60.0)).collect();
    par_render(segments, |j| {
        let samples = ((8.0 * periods[j] + 5.0) * RATE_HZ) as usize;
        render_user(j, sub_seed(seed, 200 + j as u64), samples, periods[j])
    })
}

/// Parameters of one continuous hand-motion episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Length in seconds.
    pub seconds: f64,
    /// Fundamental and second sway frequency (Hz).
    pub freqs: [f64; 2],
    /// Phase offsets of the two components.
    pub phases: [f64; 2],
}

/// The longest episode: longer than the engine's 4096-sample history, so
/// its window is truncated to the history clamp.
pub const LONGEST_EPISODE_S: f64 = 45.0;
/// The other episode lengths of a segment: within 5–40 s, and fixed, so
/// every segment costs the same (feature cost grows with the square of
/// the length).
const EPISODE_LENGTHS_S: [f64; 4] = [20.0, 10.0, 6.0, 6.0];
/// Gesture-dense stretch between episodes (each by its own user), in
/// seconds: long enough that `solo-motion`'s accuracy is scored over
/// several hundred scripted gestures (about 570 in its one segment; with
/// 60 s stretches, 276 gestures spread it by 0.09 between seeds).
pub const MOTION_STRETCH_S: f64 = 240.0;
/// Peak sway amplitude added to every channel, in ADC counts.
const MOTION_AMPLITUDE: f64 = 60.0;
/// Linear fade-in/out of each episode's sway, in seconds.
const MOTION_RAMP_S: f64 = 0.5;

/// The episodes of one `solo-motion` segment: one of
/// [`LONGEST_EPISODE_S`] and one of each of [`EPISODE_LENGTHS_S`], in
/// seeded order. Each length always carries the same sway: whether the
/// filter rejects a motion decides most of its cost, so the motions
/// themselves are fixed and the seed moves them around.
#[must_use]
pub fn motion_episodes(rng: &mut Rng) -> Vec<Episode> {
    let mut sway = Rng::new(PANEL_SEED, 300);
    let mut episodes: Vec<Episode> = std::iter::once(LONGEST_EPISODE_S)
        .chain(EPISODE_LENGTHS_S)
        .map(|seconds| Episode {
            seconds,
            freqs: [sway.uniform(0.8, 1.6), sway.uniform(2.2, 3.4)],
            phases: [
                sway.uniform(0.0, std::f64::consts::TAU),
                sway.uniform(0.0, std::f64::consts::TAU),
            ],
        })
        .collect();
    // Seeded Fisher–Yates.
    for i in (1..episodes.len()).rev() {
        episodes.swap(i, rng.below(i + 1));
    }
    episodes
}

/// The sway added at time `t` seconds into an episode.
fn sway(ep: &Episode, t: f64, channel: usize) -> f64 {
    let tau = std::f64::consts::TAU;
    let shift = channel as f64 * 0.7;
    let gain = 1.0 - 0.15 * channel as f64;
    let ramp = (t / MOTION_RAMP_S)
        .min((ep.seconds - t) / MOTION_RAMP_S)
        .clamp(0.0, 1.0);
    MOTION_AMPLITUDE
        * gain
        * ramp
        * ((tau * ep.freqs[0] * t + ep.phases[0] + shift).sin()
            + 0.6 * (tau * ep.freqs[1] * t + ep.phases[1] - shift).sin())
}

/// `solo-motion`: each segment alternates gesture-dense stretches of
/// `stretch_s` seconds (2.5 s cadence, one user per stretch) with
/// continuous hand-motion episodes.
/// An episode continues the previous stretch's rendered rest trace (same
/// user and seed, no gestures), glides to the next user's rest level,
/// and carries a two-tone sway on top.
#[must_use]
pub fn motion_pool(seed: u64, segments: usize, stretch_s: f64) -> Vec<Feed> {
    let mut rng = Rng::new(seed, 300);
    let episodes: Vec<Vec<Episode>> = (0..segments).map(|_| motion_episodes(&mut rng)).collect();
    let stretches = episodes.first().map_or(0, Vec::len) + 1;
    let stretch_samples = (stretch_s * RATE_HZ) as usize;
    // Each stretch renders twice from one spec: with gestures, and as a
    // rest trace long enough to carry the episode that follows it.
    let renders = par_render(segments * stretches, |n| {
        let (j, i) = (n / stretches, n % stretches);
        let extra = episodes[j]
            .get(i)
            .map_or(0, |e| (e.seconds * RATE_HZ) as usize);
        let stream_seed = sub_seed(seed, 300 + n as u64);
        let rest = render_user(n, stream_seed, stretch_samples + extra, f64::MAX);
        (
            render_user(n, stream_seed, stretch_samples, DENSE_PERIOD_S),
            rest,
        )
    });
    (0..segments)
        .map(|j| {
            let parts = &renders[j * stretches..(j + 1) * stretches];
            let channels = parts[0].0.channels;
            let mut feed = Feed {
                samples: Vec::new(),
                channels,
                slots: Vec::new(),
                episodes: Vec::new(),
            };
            for (i, (stretch, rest)) in parts.iter().enumerate() {
                let base = feed.len();
                feed.slots.extend(stretch.slots.iter().map(|s| Slot {
                    start: s.start + base,
                    gesture: s.gesture,
                }));
                feed.samples.extend_from_slice(&stretch.samples);
                let Some(ep) = episodes[j].get(i) else {
                    continue;
                };
                // The next stretch's resting level, to glide toward.
                let next = &parts[i + 1].0;
                let target: Vec<f64> = (0..channels)
                    .map(|k| (0..50).map(|t| next.sample(t)[k]).sum::<f64>() / 50.0)
                    .collect();
                let here = rest.sample(stretch_samples).to_vec();
                let len = (ep.seconds * RATE_HZ) as usize;
                let start = feed.len();
                for n in 0..len {
                    let t = n as f64 / RATE_HZ;
                    let glide = n as f64 / len as f64;
                    for k in 0..channels {
                        let drift = glide * (target[k] - here[k]);
                        feed.samples
                            .push(rest.sample(stretch_samples + n)[k] + drift + sway(ep, t, k));
                    }
                }
                feed.episodes.push((start, start + len));
            }
            // Gestures cut off by an episode leave the script.
            let guard = (3.0 * RATE_HZ) as usize;
            let eps = feed.episodes.clone();
            feed.slots.retain(|s| {
                eps.iter()
                    .all(|&(e0, _)| s.start + guard <= e0 || s.start > e0)
            });
            feed
        })
        .collect()
}

/// How one fleet session draws its samples from the rendered pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    /// Session id (shard = id % shards).
    pub id: u64,
    /// Index of its pool trace.
    pub trace: usize,
    /// Sample of the pool trace it starts at; it wraps at the end.
    pub offset: usize,
    /// Whether its trace runs the standard spike+dropout fault schedule.
    pub faulted: bool,
}

/// The `fleet-realtime` population: rendered traces pooled over
/// sessions with per-session offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Rendered traces: `clean` fault-free ones, then the faulted ones.
    pub pool: Vec<Feed>,
    /// One plan per session, in id order.
    pub sessions: Vec<SessionPlan>,
}

/// Every `FAULT_EVERY`-th session runs the fault schedule.
pub const FAULT_EVERY: usize = 16;
/// Stride between fault-free sessions' starting samples (coprime with
/// typical trace lengths, so starts spread over the whole trace).
const OFFSET_STRIDE: usize = 997;

/// Build the fleet population: `clean` fault-free traces of distinct
/// users, `faulted` traces on the standard spike+dropout schedule, each
/// `seconds` long, shared by `sessions` sessions at seeded offsets.
#[must_use]
pub fn fleet_plan(
    seed: u64,
    sessions: usize,
    clean: usize,
    faulted: usize,
    seconds: usize,
) -> FleetPlan {
    let samples = seconds * RATE_HZ as usize;
    let pool = par_render(clean + faulted, |j| {
        if j < clean {
            render_user(j, sub_seed(seed, 400 + j as u64), samples, DENSE_PERIOD_S)
        } else {
            // The faulted traces are a fixed script: their pathological
            // windows set the fleet's latency tail, so they are the same
            // for every seed.
            render(&SessionSpec {
                samples,
                seed: sub_seed(PANEL_SEED, 400 + j as u64),
                user: j,
                gesture_period_s: DENSE_PERIOD_S,
                faults: standard_fault_schedule(samples, true, true),
                ..SessionSpec::default()
            })
        }
    });
    let faulted_sessions = if faulted > 0 {
        sessions.div_ceil(FAULT_EVERY)
    } else {
        0
    };
    let sessions = (0..sessions)
        .map(|j| {
            let is_faulted = faulted > 0 && j % FAULT_EVERY == 0;
            let k = j / FAULT_EVERY;
            SessionPlan {
                id: j as u64,
                trace: if is_faulted {
                    clean + k % faulted
                } else {
                    j % clean.max(1)
                },
                // Fixed, evenly spread starting points: which windows
                // share a round sets the fleet's latency tail, so that
                // coincidence pattern is part of the workload, not of the
                // seed (which still renders every trace).
                offset: if is_faulted {
                    k * samples / faulted_sessions
                } else {
                    (j * OFFSET_STRIDE) % samples
                },
                faulted: is_faulted,
            }
        })
        .collect();
    FleetPlan { pool, sessions }
}

impl FleetPlan {
    /// The sample session `plan` receives at its `tick`-th tick.
    #[must_use]
    pub fn sample(&self, plan: &SessionPlan, tick: usize) -> &[f64] {
        let feed = &self.pool[plan.trace];
        feed.sample((plan.offset + tick) % feed.len())
    }

    /// The session's script over its first `consumed` samples, in session
    /// sample indices.
    #[must_use]
    pub fn slots(&self, plan: &SessionPlan, consumed: usize) -> Vec<Slot> {
        let feed = &self.pool[plan.trace];
        let len = feed.len();
        let horizon = consumed;
        let mut out = Vec::new();
        let mut base = 0usize;
        while base < horizon + len {
            for s in &feed.slots {
                let at = (s.start + len - plan.offset) % len + base;
                if at >= base && at < horizon && at < base + len {
                    out.push(Slot {
                        start: at,
                        gesture: s.gesture,
                    });
                }
            }
            base += len;
        }
        out.sort_by_key(|s| s.start);
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn motion_episodes_are_seeded_and_bounded() {
        let a = motion_episodes(&mut Rng::new(42, 300));
        let b = motion_episodes(&mut Rng::new(42, 300));
        let c = motion_episodes(&mut Rng::new(43, 300));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for eps in [&a, &c] {
            assert_eq!(eps.len(), 5);
            let longest = eps
                .iter()
                .filter(|e| e.seconds == LONGEST_EPISODE_S)
                .count();
            assert_eq!(longest, 1);
            let others = eps.iter().filter(|e| e.seconds != LONGEST_EPISODE_S);
            assert!(others.clone().all(|e| (5.0..=40.0).contains(&e.seconds)));
        }
    }

    #[test]
    fn motion_pool_is_deterministic_and_scripts_skip_episodes() {
        let a = motion_pool(9, 1, 60.0);
        assert_eq!(a, motion_pool(9, 1, 60.0));
        let feed = &a[0];
        assert_eq!(feed.episodes.len(), 5);
        for s in &feed.slots {
            for &(e0, e1) in &feed.episodes {
                assert!(s.start + 300 <= e0 || s.start >= e1);
            }
        }
        assert!(feed.slots.windows(2).all(|w| w[0].start < w[1].start));
        // The longest episode outlasts the 4096-sample history.
        assert!(feed.episodes.iter().any(|&(s, e)| e - s > 4096));
    }

    #[test]
    fn fleet_schedule_is_seeded() {
        let a = fleet_plan(5, 40, 3, 1, 4);
        assert_eq!(a, fleet_plan(5, 40, 3, 1, 4));
        let b = fleet_plan(6, 40, 3, 1, 4);
        // The seed renders the fault-free traces; the schedule is fixed.
        assert_eq!(a.sessions, b.sessions);
        assert_ne!(a.pool[0], b.pool[0]);
        assert_eq!(a.pool[3], b.pool[3]);
        assert_eq!(a.pool.len(), 4);
        for s in &a.sessions {
            assert_eq!(s.faulted, (s.id as usize).is_multiple_of(FAULT_EVERY));
            assert_eq!(s.faulted, s.trace == 3);
            assert!(s.offset < a.pool[s.trace].len());
        }
    }

    #[test]
    fn fleet_slots_follow_the_offset_and_wrap() {
        let plan = fleet_plan(11, 2, 1, 0, 10);
        let session = plan.sessions[1];
        let len = plan.pool[0].len();
        let slots = plan.slots(&session, 3 * len);
        assert!(slots.windows(2).all(|w| w[0].start < w[1].start));
        for s in &slots {
            let original = (s.start + session.offset) % len;
            assert!(plan.pool[0]
                .slots
                .iter()
                .any(|o| o.start == original && o.gesture == s.gesture));
        }
        // Every pool slot appears once per full pass.
        assert!(slots.len() >= 2 * plan.pool[0].slots.len());
    }

    #[test]
    fn dense_session_script_cycles_all_gestures() {
        let spec = SessionSpec {
            samples: 6000,
            ..SessionSpec::default()
        };
        let slots = session_slots(&spec);
        assert_eq!(slots.len(), 24);
        assert_eq!(slots[0].start, 30);
        assert_eq!(slots[1].start, 280);
        assert_eq!(slots[8].gesture, Gesture::ALL[0]);
    }
}
