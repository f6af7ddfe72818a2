//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that a coordinator
//! (the server's deadline enforcement, or any caller that wants to
//! abort a query) keeps while the request carries a clone in its
//! [`crate::QueryCtx`] down to the kernels. Kernels poll it at
//! morsel boundaries — the radix scatter loop, per-partition
//! aggregation, and the batch driver's per-query starts — so a stuck or
//! over-deadline request stops within one morsel's worth of work
//! instead of running to completion.
//!
//! Two trip conditions fold into one flag:
//!
//! * an explicit [`CancelToken::cancel`] call, and
//! * an optional wall-clock deadline fixed at construction.
//!
//! Polling is a relaxed atomic load plus (when a deadline is set) an
//! `Instant` comparison — cheap enough for a per-morsel check, far too
//! expensive for a per-row one, which is exactly why checks sit at
//! morsel granularity.

use crate::error::{ExecError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation flag with an optional deadline.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only trips on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that also trips once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A token that also trips at the absolute instant `deadline`.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// The deadline this token trips at, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Trip the token: every holder observes cancellation from now on.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has the token been tripped (explicitly or by its deadline)?
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch, so later polls skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// `Err(ExecError::Cancelled { .. })` once tripped, `Ok(())` before.
    ///
    /// `timed_out` distinguishes a deadline trip from an explicit
    /// cancel: it is true iff a deadline was set and has passed (an
    /// explicit `cancel()` racing the deadline reports as a timeout —
    /// the caller asked for both, and the deadline is the stronger
    /// contract).
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            let timed_out = matches!(self.inner.deadline, Some(d) if Instant::now() >= d);
            Err(ExecError::Cancelled { timed_out })
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Poll helper for `Option<&CancelToken>` threading: `None` never trips.
pub(crate) fn tripped(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(|c| c.is_cancelled())
}

/// Check helper for `Option<&CancelToken>`: `None` is always `Ok`.
pub(crate) fn check(cancel: Option<&CancelToken>) -> Result<()> {
    match cancel {
        Some(c) => c.check(),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        u.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(ExecError::Cancelled { timed_out: false }));
    }

    #[test]
    fn deadline_trips_by_itself() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(ExecError::Cancelled { timed_out: true }));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn option_helpers() {
        assert!(!tripped(None));
        assert!(check(None).is_ok());
        let t = CancelToken::new();
        t.cancel();
        assert!(tripped(Some(&t)));
        assert!(check(Some(&t)).is_err());
    }
}
