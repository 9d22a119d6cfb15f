//! Matching marker writes in one data center to their first visible read in another.
//!
//! A writer in DC0 PUTs sequence number `seq` to marker slot `slot` and reports the PUT's
//! acknowledgement instant. A probe session in DC1 polls the slot; the first read that
//! returns a sequence number at or past `seq` makes the marker visible, and the time from
//! the acknowledgement to that read's reply is one visibility sample. Reads of a slot
//! must never go backwards within the probe's session (monotonic reads): a regression is
//! a correctness failure.

use std::time::{Duration, Instant};

/// Markers acknowledged by the writer and not yet seen by the probe, plus the probe
/// session's last read of every slot.
#[derive(Debug)]
pub struct Tracker {
    pending: Vec<Pending>,
    last_read: Vec<u64>,
    samples: Vec<u64>,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    slot: usize,
    seq: u64,
    acked: Instant,
}

/// A probe read went backwards: the session saw `earlier` and then `now` on `slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Regression {
    /// The marker slot.
    pub slot: usize,
    /// The sequence number read before.
    pub earlier: u64,
    /// The smaller sequence number read after it.
    pub now: u64,
}

impl Tracker {
    /// A tracker over `slots` marker keys, all preloaded with sequence number 0.
    pub fn new(slots: usize) -> Tracker {
        Tracker {
            pending: Vec::new(),
            last_read: vec![0; slots],
            samples: Vec::new(),
        }
    }

    /// The writer's PUT of `seq` to `slot` was acknowledged at `acked`.
    pub fn on_ack(&mut self, slot: usize, seq: u64, acked: Instant) {
        self.pending.push(Pending { slot, seq, acked });
    }

    /// The slot the probe should read next, oldest pending marker first.
    pub fn next_slot(&self) -> Option<usize> {
        self.pending.first().map(|p| p.slot)
    }

    /// Whether any marker is waiting to become visible.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The probe read `seq` from `slot`, with the reply arriving at `at`. Every pending
    /// marker of that slot at or below `seq` becomes visible now.
    pub fn on_read(&mut self, slot: usize, seq: u64, at: Instant) -> Result<(), Regression> {
        let earlier = self.last_read[slot];
        if seq < earlier {
            return Err(Regression {
                slot,
                earlier,
                now: seq,
            });
        }
        self.last_read[slot] = seq;
        let samples = &mut self.samples;
        self.pending.retain(|p| {
            let visible = p.slot == slot && p.seq <= seq;
            if visible {
                samples.push(at.saturating_duration_since(p.acked).as_nanos() as u64);
            }
            !visible
        });
        Ok(())
    }

    /// The visibility samples, in nanoseconds.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

/// How long the probe waits between polls of a marker that is not yet visible, after the
/// first [`EAGER_POLLS`].
pub const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Polls of a fresh marker issued back to back before the probe starts pacing.
pub const EAGER_POLLS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_marker_becomes_visible_at_the_first_read_that_covers_it() {
        let t0 = Instant::now();
        let mut tracker = Tracker::new(4);
        tracker.on_ack(1, 5, t0);
        tracker.on_ack(2, 6, t0 + Duration::from_millis(1));
        assert_eq!(tracker.next_slot(), Some(1));
        // Slot 1 still shows an older write: not visible yet.
        tracker
            .on_read(1, 3, t0 + Duration::from_millis(2))
            .unwrap();
        assert!(tracker.samples().is_empty());
        // Reading a later sequence number than the marker also makes it visible.
        tracker
            .on_read(1, 9, t0 + Duration::from_millis(5))
            .unwrap();
        assert_eq!(tracker.samples(), &[5_000_000]);
        assert_eq!(tracker.next_slot(), Some(2));
        tracker
            .on_read(2, 6, t0 + Duration::from_millis(7))
            .unwrap();
        assert_eq!(tracker.samples(), &[5_000_000, 6_000_000]);
        assert!(!tracker.has_pending());
    }

    #[test]
    fn reads_of_a_slot_must_not_go_backwards() {
        let t0 = Instant::now();
        let mut tracker = Tracker::new(2);
        tracker.on_read(0, 4, t0).unwrap();
        assert_eq!(
            tracker.on_read(0, 3, t0),
            Err(Regression {
                slot: 0,
                earlier: 4,
                now: 3
            })
        );
        // Other slots are independent.
        tracker.on_read(1, 1, t0).unwrap();
    }

    #[test]
    fn a_read_before_the_ack_counts_as_zero() {
        let t0 = Instant::now();
        let mut tracker = Tracker::new(1);
        tracker.on_ack(0, 1, t0 + Duration::from_millis(1));
        tracker.on_read(0, 1, t0).unwrap();
        assert_eq!(tracker.samples(), &[0]);
    }
}
