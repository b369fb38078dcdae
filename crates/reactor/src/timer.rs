//! A hashed timer wheel with lazy cancellation.
//!
//! Deadlines are bucketed into `tick_ms` slots over a fixed ring. The
//! reactor never cancels an entry explicitly, and it keeps at most one
//! *live* entry per connection: a connection's [`Deadline`] records both
//! when it must be evicted and when its standing wheel entry fires. A
//! deadline that moves *later* (write progress, the next keep-alive
//! request) files nothing — the standing entry fires early, sees the
//! later deadline, and re-files itself once ([`TimerWheel::refire`]).
//! Only a deadline that moves *earlier* than the standing entry files a
//! new one; the superseded entry is a few bytes of garbage, recognised
//! and dropped when its slot next drains — exactly the trade the classic
//! hashed-wheel design makes to keep schedule/advance O(1) amortized.

/// One scheduled expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// Slab index of the connection.
    pub token: usize,
    /// Slab generation the entry was scheduled for.
    pub gen: u64,
    /// Absolute deadline in reactor-clock milliseconds.
    pub deadline_ms: u64,
}

/// One connection's eviction clock: the deadline it must meet and the
/// deadline of the wheel entry standing for it (never later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// When the connection is evicted, absolute reactor-clock ms.
    at_ms: u64,
    /// Deadline of the live wheel entry; `u64::MAX` before the first.
    armed_ms: u64,
}

impl Deadline {
    /// When the connection is evicted, absolute reactor-clock ms.
    pub fn at_ms(&self) -> u64 {
        self.at_ms
    }
}

impl Default for Deadline {
    fn default() -> Deadline {
        Deadline { at_ms: u64::MAX, armed_ms: u64::MAX }
    }
}

/// The wheel.
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick_ms: u64,
    /// Last tick fully drained by `advance`.
    last_tick: u64,
    /// Live (possibly stale) entries, to size drains.
    pending: usize,
}

impl TimerWheel {
    /// A wheel of `num_slots` buckets of `tick_ms` each. The ring spans
    /// `num_slots * tick_ms` milliseconds; deadlines beyond that are
    /// handled correctly (entries further than one revolution away are
    /// re-queued when their slot drains early).
    pub fn new(num_slots: usize, tick_ms: u64) -> TimerWheel {
        assert!(num_slots > 1 && tick_ms > 0);
        TimerWheel {
            slots: (0..num_slots).map(|_| Vec::new()).collect(),
            tick_ms,
            last_tick: 0,
            pending: 0,
        }
    }

    /// Milliseconds per tick.
    pub fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    /// Entries currently queued (including stale ones awaiting drain).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedule an expiry. Deadlines at or before the current tick fire
    /// on the next `advance`.
    ///
    /// The slot is the first tick boundary *at or after* the deadline
    /// (ceiling, not floor): `advance` visits each slot exactly once per
    /// revolution, so an entry filed under the floor tick could be
    /// inspected a few milliseconds *before* its deadline, kept, and
    /// then not seen again for a full revolution — a 10 ms timeout
    /// firing seconds late.
    pub fn schedule(&mut self, entry: TimerEntry) {
        let tick = entry.deadline_ms.div_ceil(self.tick_ms).max(self.last_tick + 1);
        let slot = (tick as usize) % self.slots.len();
        self.slots[slot].push(entry);
        self.pending += 1;
    }

    /// Move `clock` to `at_ms`. A wheel entry is filed only when `at_ms`
    /// is earlier than the entry already standing for the connection; a
    /// later deadline is picked up when that entry fires.
    pub fn set_deadline(&mut self, clock: &mut Deadline, token: usize, gen: u64, at_ms: u64) {
        clock.at_ms = at_ms;
        if at_ms < clock.armed_ms {
            clock.armed_ms = at_ms;
            self.schedule(TimerEntry { token, gen, deadline_ms: at_ms });
        }
    }

    /// An expired entry for a live connection: `true` when the
    /// connection is due for eviction. An entry superseded by an earlier
    /// one is ignored; the standing entry of a connection whose deadline
    /// has since moved later re-files itself at that deadline.
    pub fn refire(&mut self, clock: &mut Deadline, e: TimerEntry) -> bool {
        if e.deadline_ms != clock.armed_ms {
            return false;
        }
        if clock.at_ms <= e.deadline_ms {
            return true;
        }
        clock.armed_ms = clock.at_ms;
        self.schedule(TimerEntry { deadline_ms: clock.at_ms, ..e });
        false
    }

    /// Advance the wheel to `now_ms`, appending every entry whose
    /// deadline has passed to `expired`. Entries in visited slots whose
    /// deadline is still in the future (a later revolution) are kept.
    pub fn advance(&mut self, now_ms: u64, expired: &mut Vec<TimerEntry>) {
        let now_tick = now_ms / self.tick_ms;
        if now_tick <= self.last_tick {
            return;
        }
        let n = self.slots.len() as u64;
        // Visit each slot at most once per advance, even if we fell far
        // behind (each slot holds every residue class of its index).
        let span = (now_tick - self.last_tick).min(n);
        for t in self.last_tick + 1..=self.last_tick + span {
            let slot = (t as usize) % self.slots.len();
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline_ms <= now_ms {
                    let e = bucket.swap_remove(i);
                    self.pending -= 1;
                    expired.push(e);
                } else {
                    i += 1;
                }
            }
        }
        self.last_tick = now_tick;
    }

    /// Milliseconds until the next tick boundary after `now_ms` — the
    /// natural poll timeout when no I/O is pending.
    pub fn ms_to_next_tick(&self, now_ms: u64) -> u64 {
        self.tick_ms - (now_ms % self.tick_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expired_at(wheel: &mut TimerWheel, now: u64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        wheel.advance(now, &mut out);
        out
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new(16, 10);
        w.schedule(TimerEntry { token: 1, gen: 0, deadline_ms: 55 });
        assert!(expired_at(&mut w, 40).is_empty());
        let fired = expired_at(&mut w, 60);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 1);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn deadline_beyond_one_revolution_waits() {
        let mut w = TimerWheel::new(8, 10); // ring spans 80 ms
        w.schedule(TimerEntry { token: 3, gen: 0, deadline_ms: 250 });
        // Sweep several revolutions below the deadline: nothing fires.
        for now in (10..250).step_by(10) {
            assert!(expired_at(&mut w, now).is_empty(), "premature fire at {now}");
        }
        assert_eq!(expired_at(&mut w, 250).len(), 1);
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new(8, 10);
        expired_at(&mut w, 100); // move time forward
        w.schedule(TimerEntry { token: 9, gen: 2, deadline_ms: 30 }); // already past
        let fired = expired_at(&mut w, 110);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].gen, 2);
    }

    #[test]
    fn big_jump_drains_every_slot_once() {
        let mut w = TimerWheel::new(4, 10);
        for t in 0..12 {
            w.schedule(TimerEntry { token: t, gen: 0, deadline_ms: 10 + (t as u64) * 7 });
        }
        // Jump far past everything in one advance.
        let fired = expired_at(&mut w, 10_000);
        assert_eq!(fired.len(), 12);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn mid_tick_deadline_fires_next_boundary_not_next_revolution() {
        // deadline 55 lands mid-tick. An advance that reaches tick 5
        // (now=50..54) must NOT consume-and-drop the slot with the
        // entry unexpired; the very next boundary (now=60) fires it.
        let mut w = TimerWheel::new(8, 10); // ring spans 80 ms
        w.schedule(TimerEntry { token: 7, gen: 0, deadline_ms: 55 });
        assert!(expired_at(&mut w, 52).is_empty(), "fired before the deadline");
        let fired = expired_at(&mut w, 61);
        assert_eq!(fired.len(), 1, "entry missed its slot: would fire a revolution late");
        assert_eq!(fired[0].token, 7);
    }

    /// Drive `clock` through the wheel until `now`: the connection's
    /// fired-and-due entries, as the reactor's expiry pass sees them.
    fn due_at(w: &mut TimerWheel, clock: &mut Deadline, now: u64) -> bool {
        let mut due = false;
        for e in expired_at(w, now) {
            due |= w.refire(clock, e);
        }
        due
    }

    #[test]
    fn later_deadline_files_no_entry_and_still_evicts_on_time() {
        let mut w = TimerWheel::new(16, 10);
        let mut clock = Deadline::default();
        w.set_deadline(&mut clock, 4, 1, 100);
        assert_eq!(w.pending(), 1);
        // Push the deadline out twice (write progress): nothing is filed.
        w.set_deadline(&mut clock, 4, 1, 250);
        w.set_deadline(&mut clock, 4, 1, 400);
        assert_eq!(w.pending(), 1, "a later deadline must not file an entry");
        // The standing entry fires at 100, finds the deadline moved, and
        // re-files itself once — still a single live entry.
        assert!(!due_at(&mut w, &mut clock, 110));
        assert_eq!(w.pending(), 1);
        assert!(!due_at(&mut w, &mut clock, 390), "evicted before the moved deadline");
        assert!(due_at(&mut w, &mut clock, 410), "not evicted at the moved deadline");
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn earlier_deadline_supersedes_the_standing_entry() {
        let mut w = TimerWheel::new(16, 10);
        let mut clock = Deadline::default();
        w.set_deadline(&mut clock, 2, 0, 500);
        w.set_deadline(&mut clock, 2, 0, 60); // parse clock: tighter
        assert_eq!(w.pending(), 2);
        w.set_deadline(&mut clock, 2, 0, 300); // head parsed: looser again
        assert_eq!(w.pending(), 2);
        assert!(!due_at(&mut w, &mut clock, 70), "the 60 ms entry re-files at 300");
        assert!(due_at(&mut w, &mut clock, 310));
        // The superseded 500 ms entry drains without acting.
        w.set_deadline(&mut clock, 2, 0, 2_000);
        assert!(!due_at(&mut w, &mut clock, 510));
    }

    #[test]
    fn next_tick_timeout_is_bounded() {
        let w = TimerWheel::new(16, 25);
        for now in [0, 1, 24, 25, 26, 99] {
            let ms = w.ms_to_next_tick(now);
            assert!((1..=25).contains(&ms), "timeout {ms} at now={now}");
        }
    }
}
