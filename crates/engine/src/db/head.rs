//! The committed head and the bookkeeping the pipeline keeps beside it.

use crate::events::Materialized;
use std::collections::VecDeque;
use std::sync::Arc;
use txlog_relational::{DbState, Delta};

/// How many recent `(version, delta)` pairs the head retains for
/// conflict analysis. A session whose snapshot is older than the log can
/// still commit — it just always takes the conservative conflict path.
const DELTA_LOG_CAP: usize = 64;

/// The committed head plus the bookkeeping the pipeline needs.
pub(super) struct Head {
    pub(super) version: u64,
    pub(super) state: Arc<DbState>,
    /// Trailing committed states, oldest first, ending at `state`;
    /// bounded by the largest constraint window.
    recent: VecDeque<Arc<DbState>>,
    /// `labels[i]` names the commit that produced `recent[i + 1]`.
    labels: VecDeque<String>,
    /// Recent committed deltas as `(version_after, delta)`, oldest
    /// first, for composing "what happened since snapshot v".
    pub(super) log: VecDeque<(u64, Delta)>,
    /// The materialized event patterns, stepped on every candidate and
    /// advanced by every commit that installs.
    pub(super) materialized: Vec<Materialized>,
}

impl Head {
    /// A head at `version` with no retained history before `state`,
    /// whose materialized patterns have seen every commit up to it.
    pub(super) fn new(version: u64, state: Arc<DbState>, mats: Vec<Materialized>) -> Head {
        Head {
            version,
            state: Arc::clone(&state),
            recent: VecDeque::from([state]),
            labels: VecDeque::new(),
            log: VecDeque::new(),
            materialized: mats,
        }
    }

    /// Compose the deltas committed after `since`, oldest first, or
    /// `None` if the log no longer reaches back that far.
    pub(super) fn delta_since(&self, since: u64) -> Option<Delta> {
        let needed = self.version - since;
        let tail: Vec<&Delta> = self
            .log
            .iter()
            .filter(|(v, _)| *v > since)
            .map(|(_, d)| d)
            .collect();
        if tail.len() as u64 != needed {
            return None;
        }
        let mut out = Delta::empty();
        for d in tail {
            out = out.compose(d);
        }
        Some(out)
    }

    /// A constraint's view of recent history: the last `prior` retained
    /// states (fewer near the start of history), oldest first, with the
    /// labels of the commits between them, optionally closed by a
    /// candidate state and the label of the commit proposing it. Always
    /// one label fewer than states: a label belongs to the window only
    /// if its pre-state does, so a window of the candidate alone
    /// (`prior == 0`) carries none.
    pub(super) fn window<'a>(
        &'a self,
        prior: usize,
        closing: Option<(&DbState, &'a str)>,
    ) -> (Vec<DbState>, Vec<&'a str>) {
        let take = prior.min(self.recent.len());
        let mut states: Vec<DbState> = self
            .recent
            .iter()
            .skip(self.recent.len() - take)
            .map(|s| (**s).clone())
            .collect();
        // `take` consecutive states have `take - 1` commits between them
        let mut labels: Vec<&str> = self
            .labels
            .iter()
            .skip(self.labels.len() - take.saturating_sub(1))
            .map(String::as_str)
            .collect();
        if let Some((state, label)) = closing {
            if !states.is_empty() {
                labels.push(label);
            }
            states.push(state.clone());
        }
        (states, labels)
    }

    /// Make `state` the head. With absorbing the materialized patterns'
    /// steps right after it, the only mutation of a `Head`; nothing in
    /// either can unwind — the invariant `Database::head`'s poison
    /// recovery rests on.
    pub(super) fn install(
        &mut self,
        label: &str,
        state: Arc<DbState>,
        delta: Delta,
        keep_states: usize,
    ) {
        self.version += 1;
        self.state = Arc::clone(&state);
        self.recent.push_back(state);
        self.labels.push_back(label.to_string());
        while self.recent.len() > keep_states.max(1) {
            self.recent.pop_front();
            self.labels.pop_front();
        }
        self.log.push_back((self.version, delta));
        while self.log.len() > DELTA_LOG_CAP {
            self.log.pop_front();
        }
    }
}
