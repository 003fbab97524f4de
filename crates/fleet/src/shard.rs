//! One shard: an exclusively-owned session table plus its round drain.
//!
//! The fleet's lock-freedom comes from ownership, not synchronization:
//! each shard is a plain `&mut` handed to exactly one worker per round by
//! [`airfinger_parallel::par_for_each_mut`], so the per-sample push path
//! never touches a mutex or an atomic beyond the (deterministic) global
//! metric counters.

use airfinger_core::engine::{DeferredPush, PendingWindow, StreamingEngine};
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::{AirFinger, PreparedWindow};
use std::collections::VecDeque;

/// One live session: its engine, bounded ingress queue, and output log.
#[derive(Debug)]
pub(crate) struct Session {
    pub(crate) id: u64,
    pub(crate) engine: StreamingEngine,
    pub(crate) queue: VecDeque<Vec<f64>>,
    /// A window closed mid-round, awaiting the batch classification pass.
    pub(crate) pending: Option<PendingWindow>,
    pub(crate) recognitions: Vec<Recognition>,
    pub(crate) samples_processed: u64,
    pub(crate) errors: u64,
}

/// One pending feature row gathered during a drain, keyed by session id.
#[derive(Debug)]
pub(crate) struct BatchEntry {
    pub(crate) session: u64,
    pub(crate) features: Vec<f64>,
}

/// A shard: sessions sorted by id (binary-search lookup, no hash maps on
/// the result path) plus the rows its last drain left for batching.
#[derive(Debug)]
pub(crate) struct Shard {
    sessions: Vec<Session>,
    quantum: usize,
    batch: Vec<BatchEntry>,
    drained_last_round: u64,
}

impl Shard {
    pub(crate) fn new(quantum: usize) -> Self {
        Shard {
            sessions: Vec::new(),
            quantum: quantum.max(1),
            batch: Vec::new(),
            drained_last_round: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    pub(crate) fn sessions_mut(&mut self) -> &mut [Session] {
        &mut self.sessions
    }

    fn position(&self, id: u64) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |s| s.id)
    }

    pub(crate) fn contains(&self, id: u64) -> bool {
        self.position(id).is_ok()
    }

    pub(crate) fn session(&self, id: u64) -> Option<&Session> {
        self.position(id).ok().map(|i| &self.sessions[i])
    }

    pub(crate) fn session_mut(&mut self, id: u64) -> Option<&mut Session> {
        self.position(id).ok().map(move |i| &mut self.sessions[i])
    }

    /// Insert a session, keeping the table sorted by id. The caller has
    /// already checked capacity and duplicates.
    pub(crate) fn insert(&mut self, id: u64, engine: StreamingEngine) {
        let at = match self.position(id) {
            Ok(i) | Err(i) => i,
        };
        self.sessions.insert(
            at,
            Session {
                id,
                engine,
                queue: VecDeque::new(),
                pending: None,
                recognitions: Vec::new(),
                samples_processed: 0,
                errors: 0,
            },
        );
    }

    /// Evict a session (backpressure shed), dropping its queue, engine and
    /// output log. Surviving sessions are untouched.
    pub(crate) fn evict(&mut self, id: u64) -> bool {
        match self.position(id) {
            Ok(i) => {
                self.sessions.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Drain up to `quantum` queued samples through every session, in id
    /// order. A session whose push closes a gesture window that passes the
    /// interference filter *pauses* for the rest of the round — its
    /// feature row joins the shard's batch and its monitor observation is
    /// deferred until the fleet resolves the batch — so the per-session
    /// event sequence stays bit-identical to a solo `push` loop.
    pub(crate) fn drain(&mut self) {
        let quantum = self.quantum;
        let batch = &mut self.batch;
        let mut drained = 0u64;
        for session in &mut self.sessions {
            let mut budget = quantum;
            while budget > 0 && session.pending.is_none() {
                let Some(sample) = session.queue.pop_front() else {
                    break;
                };
                budget -= 1;
                let pushed = {
                    let _s = airfinger_obs::span!("fleet_push_seconds");
                    session.engine.push_deferred(&sample)
                };
                airfinger_obs::counter!("fleet_samples_processed_total").inc();
                session.samples_processed += 1;
                drained += 1;
                match pushed {
                    Ok(DeferredPush::Quiet) => {}
                    Ok(DeferredPush::Closed(pending)) => {
                        let prepared = session.engine.pipeline().prepare_window(pending.window());
                        match prepared {
                            Ok(PreparedWindow::Rejected(recognition)) => {
                                session.engine.resolve_pending(&pending, &Ok(recognition));
                                session.recognitions.push(recognition);
                            }
                            Ok(PreparedWindow::Pending(features)) => {
                                batch.push(BatchEntry {
                                    session: session.id,
                                    features,
                                });
                                session.pending = Some(pending);
                            }
                            Err(e) => {
                                session.engine.resolve_pending(&pending, &Err(e));
                                session.errors += 1;
                            }
                        }
                    }
                    // Width mismatches are rejected at enqueue; a
                    // non-finite sample errors here and is counted, never
                    // propagated — one bad session must not stall its
                    // shard.
                    Err(_) => session.errors += 1,
                }
            }
        }
        self.drained_last_round = drained;
    }

    pub(crate) fn take_batch(&mut self) -> Vec<BatchEntry> {
        std::mem::take(&mut self.batch)
    }

    pub(crate) fn drained_last_round(&self) -> u64 {
        self.drained_last_round
    }

    /// Resolve one session's pending window with its batched prediction:
    /// finish the recognition, replay the deferred monitor observation,
    /// and log the event.
    pub(crate) fn finish_pending(&mut self, id: u64, pipeline: &AirFinger, predicted: usize) {
        let Some(session) = self.session_mut(id) else {
            return;
        };
        let Some(pending) = session.pending.take() else {
            return;
        };
        let result = pipeline.finish_window(pending.window(), predicted);
        session.engine.resolve_pending(&pending, &result);
        match result {
            Ok(recognition) => session.recognitions.push(recognition),
            Err(_) => session.errors += 1,
        }
    }

    pub(crate) fn queued(&self) -> usize {
        self.sessions.iter().map(|s| s.queue.len()).sum()
    }

    pub(crate) fn idle(&self) -> bool {
        self.sessions
            .iter()
            .all(|s| s.queue.is_empty() && s.pending.is_none())
    }
}
