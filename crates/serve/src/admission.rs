//! Pure admission-control and deadline arithmetic.
//!
//! Everything here is clock-free and socket-free: times are absolute
//! milliseconds on the engine's monotonic epoch, supplied by the caller.
//! That makes the policies unit-testable without threads or sleeps — the
//! engine is just one caller of these functions with a real clock.

/// Bounded-queue admission: at or above `capacity` queued requests, new work
/// is *shed* with a typed overload rejection instead of stalling the client.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum queued (not yet dequeued) requests.
    pub capacity: usize,
}

impl AdmissionPolicy {
    /// Whether a new request may enter a queue currently `depth` deep.
    /// Retried requests bypass admission (they already hold a slot), so this
    /// is consulted only at first submission.
    pub fn admit(&self, depth: usize) -> bool {
        depth < self.capacity
    }
}

/// A per-request deadline on the engine's millisecond epoch. `None` means
/// the request runs without a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at_ms: Option<u64>,
}

impl Deadline {
    /// No deadline.
    pub const NONE: Deadline = Deadline { at_ms: None };

    /// A deadline `budget_ms` after `now_ms`; `0` means no deadline.
    pub fn from_budget(now_ms: u64, budget_ms: u64) -> Deadline {
        if budget_ms == 0 {
            Deadline::NONE
        } else {
            Deadline { at_ms: Some(now_ms.saturating_add(budget_ms)) }
        }
    }

    /// Whether the deadline has passed at `now_ms`. Checked at every stage
    /// boundary and — crucially — at dequeue: a request that spent its whole
    /// budget queued is answered with a deadline error without wasting a
    /// worker on it.
    pub fn expired(&self, now_ms: u64) -> bool {
        match self.at_ms {
            Some(at) => now_ms >= at,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_sheds_at_capacity() {
        let p = AdmissionPolicy { capacity: 2 };
        assert!(p.admit(0));
        assert!(p.admit(1));
        assert!(!p.admit(2));
        assert!(!p.admit(100));
        // Degenerate capacity 0 sheds everything.
        assert!(!AdmissionPolicy { capacity: 0 }.admit(0));
    }

    #[test]
    fn deadline_expires_exactly_at_budget() {
        let d = Deadline::from_budget(1000, 250);
        assert!(!d.expired(1000));
        assert!(!d.expired(1249));
        assert!(d.expired(1250));
        assert!(d.expired(u64::MAX));
    }

    #[test]
    fn deadline_already_expired_at_dequeue() {
        // A request with a 10 ms budget dequeued 50 ms later is dead on
        // arrival: the dequeue check must catch it before any stage runs.
        let enqueued_at = 500;
        let d = Deadline::from_budget(enqueued_at, 10);
        let dequeued_at = enqueued_at + 50;
        assert!(d.expired(dequeued_at));
    }

    #[test]
    fn zero_budget_means_no_deadline() {
        let d = Deadline::from_budget(123, 0);
        assert_eq!(d, Deadline::NONE);
        assert!(!d.expired(u64::MAX));
    }
}
