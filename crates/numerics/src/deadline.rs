//! Cooperative wall-clock deadlines.
//!
//! A [`Deadline`] is a cheap, copyable "stop by this instant" token that the
//! iterative kernels (Newton loops, transient stepping, annealing) check at
//! iteration granularity. It is purely observational: a run that never
//! expires takes exactly the same path as one with no deadline at all, so
//! the determinism contract (bit-identical trajectories across thread
//! counts) is unaffected by merely *carrying* a deadline.
//!
//! The default is [`Deadline::none`] — unlimited — and checks against an
//! unlimited deadline are a single `Option` discriminant test, so hot loops
//! pay essentially nothing when no budget is configured.

use std::time::{Duration, Instant};

/// A cooperative wall-clock budget: either unlimited or "stop at instant".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: [`Deadline::expired`] is always `false`.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// Deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// The tighter of two deadlines (used to combine a per-run budget with a
    /// per-block budget). Unlimited loses to any finite deadline.
    pub fn earliest(self, other: Deadline) -> Self {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline { at: Some(a.min(b)) },
            (Some(a), None) => Deadline { at: Some(a) },
            (None, b) => Deadline { at: b },
        }
    }

    /// Has the budget run out? Unlimited deadlines never expire.
    #[inline]
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Remaining budget; `None` when unlimited, zero once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Remaining budget in seconds; `None` when unlimited. Expired
    /// deadlines report `0.0` rather than going negative so the value can
    /// be stored as slack without sign games.
    pub fn slack_seconds(&self) -> Option<f64> {
        self.remaining().map(|d| d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(d.remaining().is_none());
        assert!(d.slack_seconds().is_none());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::within(Duration::from_secs(0));
        assert!(d.remaining().is_some());
        assert!(d.expired());
        assert_eq!(d.slack_seconds(), Some(0.0));
    }

    #[test]
    fn generous_budget_not_yet_expired() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.slack_seconds().unwrap() > 3000.0);
    }

    #[test]
    fn earliest_picks_the_tighter_deadline() {
        let soon = Deadline::within(Duration::from_millis(1));
        let late = Deadline::within(Duration::from_secs(3600));
        let combined = late.earliest(soon);
        assert!(combined.remaining().unwrap() <= Duration::from_millis(1));
        // Unlimited loses to any finite deadline, in either order.
        assert!(Deadline::none().earliest(soon).remaining().is_some());
        assert!(soon.earliest(Deadline::none()).remaining().is_some());
        assert!(Deadline::none()
            .earliest(Deadline::none())
            .remaining()
            .is_none());
    }

    #[test]
    fn default_is_unlimited() {
        assert_eq!(Deadline::default(), Deadline::none());
    }
}
