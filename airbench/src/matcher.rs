//! The scripted-slot matcher behind `accuracy` and `spurious_per_min`.
//!
//! A workload's input script says where each deliberate gesture starts
//! (a *slot*) and which class it is. A closed window *matches* a slot
//! when its start lies in `[slot − 0.2 s, slot + 2.0 s)`. A slot counts
//! as recognized when the longest accepted window matching it carries
//! the scripted class; an accepted window that matches no slot is
//! spurious. Scoring covers a span of the stream: slots outside it are
//! not scripted, and windows outside it count only when they match a
//! slot inside it.

use airfinger_synth::gesture::Gesture;
use std::ops::Range;

/// A matching window may start this long before its slot.
pub const LEAD_S: f64 = 0.2;
/// … and must start less than this long after it.
pub const LAG_S: f64 = 2.0;

/// One scripted gesture: start sample and class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Sample index at which the gesture starts.
    pub start: usize,
    /// The scripted class.
    pub gesture: Gesture,
}

/// One closed window as the recognizer reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First sample of the window.
    pub start: usize,
    /// One past its last sample.
    pub end: usize,
    /// The recognized class; `None` for a window the filter rejected.
    pub gesture: Option<Gesture>,
}

/// Matcher verdict over one script.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Scripted gestures.
    pub slots: usize,
    /// Slots whose longest matched accepted window has the scripted class.
    pub correct: usize,
    /// Accepted windows that match no slot.
    pub spurious: usize,
    /// Accepted windows.
    pub accepted: usize,
    /// All closed windows.
    pub windows: usize,
}

impl Score {
    /// Add another script's verdict.
    pub fn add(&mut self, other: Score) {
        self.slots += other.slots;
        self.correct += other.correct;
        self.spurious += other.spurious;
        self.accepted += other.accepted;
        self.windows += other.windows;
    }

    /// `correct ÷ slots` (`0.0` without slots).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.correct as f64 / self.slots as f64
        }
    }
}

/// Score `windows` against the `slots` that start within `span` (both in
/// the same sample clock). `slots` must be sorted by start; windows may
/// come in any order.
#[must_use]
pub fn score(slots: &[Slot], windows: &[Window], rate_hz: f64, span: Range<usize>) -> Score {
    let lead = (LEAD_S * rate_hz).round() as usize;
    let lag = (LAG_S * rate_hz).round() as usize;
    let first = slots.partition_point(|s| s.start < span.start);
    let last = slots.partition_point(|s| s.start < span.end);
    let slots = &slots[first..last.max(first)];
    // Longest accepted window per slot: (length, class).
    let mut best: Vec<Option<(usize, Option<Gesture>)>> = vec![None; slots.len()];
    let mut out = Score {
        slots: slots.len(),
        windows: windows.iter().filter(|w| span.contains(&w.start)).count(),
        ..Score::default()
    };
    for w in windows.iter().filter(|w| w.gesture.is_some()) {
        let inside = span.contains(&w.start);
        out.accepted += usize::from(inside);
        // First slot whose match interval holds the window start.
        let first = slots.partition_point(|s| s.start + lag <= w.start);
        let matched = slots
            .get(first)
            .filter(|s| s.start.saturating_sub(lead) <= w.start && w.start < s.start + lag);
        match matched {
            Some(_) => {
                let len = w.end - w.start;
                let slot = &mut best[first];
                if slot.is_none_or(|(l, _)| len > l) {
                    *slot = Some((len, w.gesture));
                }
            }
            None => out.spurious += usize::from(inside),
        }
    }
    out.correct = slots
        .iter()
        .zip(&best)
        .filter(|(s, b)| matches!(b, Some((_, Some(g))) if *g == s.gesture))
        .count();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: Range<usize> = 0..usize::MAX;

    fn slot(start: usize, gesture: Gesture) -> Slot {
        Slot { start, gesture }
    }

    fn win(start: usize, end: usize, gesture: Option<Gesture>) -> Window {
        Window {
            start,
            end,
            gesture,
        }
    }

    #[test]
    fn match_interval_is_half_open() {
        let slots = [slot(1000, Gesture::Rub)];
        // 20 samples early: inside; 21 early: outside.
        let s = score(&slots, &[win(980, 1100, Some(Gesture::Rub))], 100.0, ALL);
        assert_eq!((s.correct, s.spurious), (1, 0));
        let s = score(&slots, &[win(979, 1100, Some(Gesture::Rub))], 100.0, ALL);
        assert_eq!((s.correct, s.spurious), (0, 1));
        // 199 late: inside; 200 late: outside.
        let s = score(&slots, &[win(1199, 1300, Some(Gesture::Rub))], 100.0, ALL);
        assert_eq!((s.correct, s.spurious), (1, 0));
        let s = score(&slots, &[win(1200, 1300, Some(Gesture::Rub))], 100.0, ALL);
        assert_eq!((s.correct, s.spurious), (0, 1));
    }

    #[test]
    fn longest_matched_window_decides() {
        let slots = [slot(1000, Gesture::Rub), slot(1250, Gesture::Click)];
        let windows = [
            // Fragment of slot 0 with the wrong class, and the long window
            // with the right one.
            win(1005, 1020, Some(Gesture::Click)),
            win(1010, 1150, Some(Gesture::Rub)),
            // Slot 1: the longest window is wrong.
            win(1260, 1400, Some(Gesture::Rub)),
            win(1300, 1320, Some(Gesture::Click)),
        ];
        let s = score(&slots, &windows, 100.0, ALL);
        assert_eq!(s.slots, 2);
        assert_eq!(s.correct, 1);
        assert_eq!(s.spurious, 0);
        assert_eq!(s.accepted, 4);
        assert_eq!(s.accuracy(), 0.5);
    }

    #[test]
    fn rejected_windows_neither_match_nor_count_as_spurious() {
        let slots = [slot(500, Gesture::Circle)];
        let windows = [
            win(510, 600, None),
            win(5000, 5100, None),
            win(7000, 7100, Some(Gesture::Circle)),
        ];
        let s = score(&slots, &windows, 100.0, ALL);
        assert_eq!(s.correct, 0);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.spurious, 1);
        assert_eq!(s.windows, 3);
    }

    #[test]
    fn slot_near_stream_start_does_not_underflow() {
        let slots = [slot(5, Gesture::Rub)];
        let s = score(&slots, &[win(0, 50, Some(Gesture::Rub))], 100.0, ALL);
        assert_eq!(s.correct, 1);
    }

    #[test]
    fn span_limits_slots_and_unmatched_windows() {
        let slots = [slot(100, Gesture::Rub), slot(1000, Gesture::Click)];
        let windows = [
            // Before the span, unmatched: ignored.
            win(10, 40, Some(Gesture::Rub)),
            // Matches the slot inside the span from just before it.
            win(990, 1100, Some(Gesture::Click)),
            // After the span, unmatched: ignored.
            win(5000, 5100, Some(Gesture::Rub)),
            // Inside, unmatched: spurious.
            win(3000, 3100, Some(Gesture::Rub)),
        ];
        let s = score(&slots, &windows, 100.0, 995..4000);
        assert_eq!(s.slots, 1);
        assert_eq!(s.correct, 1);
        assert_eq!(s.spurious, 1);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.windows, 1);
    }
}
