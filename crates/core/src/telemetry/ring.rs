//! Fixed-capacity, allocation-free event storage.
//!
//! [`EventRing`] allocates its entire buffer up front and never grows:
//! pushing into a full ring overwrites the oldest event. This keeps the
//! recording hot path free of allocator traffic, which the
//! `telemetry_overhead` bench verifies with a counting allocator.

use super::Event;

/// Fixed-capacity ring buffer of [`Event`]s.
///
/// All storage is reserved in [`EventRing::with_capacity`]; [`push`]
/// never allocates. Once the ring is full the oldest event is
/// overwritten, so the ring always holds the most recent
/// `capacity()` events.
///
/// [`push`]: EventRing::push
#[derive(Debug)]
pub struct EventRing {
    /// Backing storage; grows (within pre-reserved capacity) until full,
    /// then stays at `cap` elements forever.
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped (always 0
    /// before the first wrap).
    head: usize,
    /// Fixed capacity; `buf.len() <= cap` at all times.
    cap: usize,
    /// Total number of events ever pushed, including overwritten ones.
    total: u64,
}

impl EventRing {
    /// Create a ring holding at most `cap` events (minimum 1). The full
    /// backing buffer is allocated here, up front.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
            total: 0,
        }
    }

    /// Append an event, overwriting the oldest one if the ring is full.
    /// Never allocates.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total number of events ever pushed, including those since
    /// overwritten.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Number of events lost to overwriting (`total_pushed - len`).
    pub fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Raw pointer to the backing buffer. Only useful to assert, in
    /// tests, that pushing past capacity does not reallocate.
    pub fn as_ptr(&self) -> *const Event {
        self.buf.as_ptr()
    }

    /// Iterate events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (before, from_head) = self.buf.split_at(self.head);
        from_head.iter().chain(before.iter())
    }

    /// Copy the stored events out, oldest-first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().copied().collect()
    }

    /// Drop all stored events (the allocation is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EventKind, NO_CONTEXT, NO_SITE};
    use super::*;

    fn ev(i: u64) -> Event {
        Event {
            t_us: i,
            site: NO_SITE,
            context: NO_CONTEXT,
            kind: EventKind::QueueDepth {
                depth: i as u32,
                workers: 1,
            },
        }
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = EventRing::with_capacity(4);
        for i in 0..6 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 6);
        assert_eq!(r.overwritten(), 2);
        let got: Vec<u64> = r.iter().map(|e| e.t_us).collect();
        assert_eq!(got, vec![2, 3, 4, 5]);
    }

    #[test]
    fn never_reallocates_past_capacity() {
        let mut r = EventRing::with_capacity(8);
        let p0 = r.as_ptr();
        for i in 0..100 {
            r.push(ev(i));
        }
        assert_eq!(r.as_ptr(), p0, "ring must not reallocate");
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn clear_retains_allocation() {
        let mut r = EventRing::with_capacity(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        let p0 = r.as_ptr();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 0);
        for i in 0..4 {
            r.push(ev(i));
        }
        assert_eq!(r.as_ptr(), p0);
    }
}
