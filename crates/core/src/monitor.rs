//! The resource monitor (§3.2).
//!
//! *"A table is used to keep track of the current load level for the
//! resources, where an entry is allocated to each resource to save its
//! current usage level."* [`ResourceMonitor`] is that table: per
//! resource it stores the nominal capacity and the summed demand of all
//! active progress periods, updated on every period entry/exit, and
//! answers the free-space queries the predicate needs.

//! Beyond the paper, each row carries a second, **overflow** bucket:
//! the summed demand of periods force-admitted by waitlist aging. It is
//! deliberately excluded from [`ResourceMonitor::usage`] (and therefore
//! from the scheduling predicate) — degraded admissions must not be
//! able to wedge the nominal books shut for well-behaved periods.
//!
//! The table is laid out struct-of-arrays: each column (capacity,
//! usage, overflow, epoch) is one small array indexed by
//! [`Resource::index`].

use crate::api::Resource;

const N: usize = Resource::ALL.len();

/// Real-time estimation of hardware resource usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceMonitor {
    capacity: [u64; N],
    usage: [u64; N],
    /// Demand admitted under degraded (aged / force-admitted)
    /// accounting; tracked separately so it never blocks the predicate.
    overflow: [u64; N],
    /// Monotone counter bumped on every usage change; the fast path
    /// uses it to detect staleness cheaply.
    epoch: [u64; N],
}

impl ResourceMonitor {
    /// Build a monitor with the given capacities.
    pub fn new(llc_capacity: u64, membw_capacity: u64) -> Self {
        ResourceMonitor {
            capacity: [llc_capacity, membw_capacity],
            usage: [0; N],
            overflow: [0; N],
            epoch: [0; N],
        }
    }

    /// Nominal capacity of a resource.
    pub fn capacity(&self, r: Resource) -> u64 {
        self.capacity[r.index()]
    }

    /// Current summed demand of active periods admitted under nominal
    /// accounting (excludes the overflow bucket).
    pub fn usage(&self, r: Resource) -> u64 {
        self.usage[r.index()]
    }

    /// Summed demand of periods force-admitted under degraded
    /// (overflow) accounting.
    pub fn overflow(&self, r: Resource) -> u64 {
        self.overflow[r.index()]
    }

    /// Nominal plus overflow demand — the real pressure on the
    /// hardware, for reporting (the predicate sees only [`Self::usage`]).
    pub fn total_usage(&self, r: Resource) -> u64 {
        let i = r.index();
        self.usage[i].saturating_add(self.overflow[i])
    }

    /// Unused nominal capacity (saturating at zero when oversubscribed).
    pub fn remaining(&self, r: Resource) -> u64 {
        let i = r.index();
        self.capacity[i].saturating_sub(self.usage[i])
    }

    /// Signed remaining capacity — negative when policies have allowed
    /// oversubscription.
    pub fn remaining_signed(&self, r: Resource) -> i128 {
        let i = r.index();
        self.capacity[i] as i128 - self.usage[i] as i128
    }

    /// Usage-change epoch (bumped on every increment/decrement).
    pub fn epoch(&self, r: Resource) -> u64 {
        self.epoch[r.index()]
    }

    /// Account a newly admitted period's demand.
    pub fn increment_load(&mut self, r: Resource, demand: u64) {
        let i = r.index();
        self.usage[i] += demand;
        self.epoch[i] += 1;
    }

    /// Release a completed period's demand.
    ///
    /// Panics if the release exceeds the tracked usage — that would mean
    /// the registry double-released a period, which is a scheduler bug.
    pub fn decrement_load(&mut self, r: Resource, demand: u64) {
        let i = r.index();
        assert!(
            self.usage[i] >= demand,
            "resource {r}: releasing {demand} with only {} in use",
            self.usage[i]
        );
        self.usage[i] -= demand;
        self.epoch[i] += 1;
    }

    /// Account a period force-admitted by waitlist aging in the
    /// degraded overflow bucket.
    pub fn increment_overflow(&mut self, r: Resource, demand: u64) {
        let i = r.index();
        self.overflow[i] += demand;
        self.epoch[i] += 1;
    }

    /// Release a completed overflow-admitted period's demand.
    ///
    /// Panics if the release exceeds the tracked overflow usage — that
    /// would mean a double release, which is a scheduler bug (the typed
    /// error paths in [`crate::extension`] make it unreachable).
    pub fn decrement_overflow(&mut self, r: Resource, demand: u64) {
        let i = r.index();
        assert!(
            self.overflow[i] >= demand,
            "resource {r}: releasing {demand} overflow with only {} in the bucket",
            self.overflow[i]
        );
        self.overflow[i] -= demand;
        self.epoch[i] += 1;
    }

    /// Oversubscription ratio `usage / capacity` (0 for idle).
    pub fn pressure(&self, r: Resource) -> f64 {
        let i = r.index();
        if self.capacity[i] == 0 {
            0.0
        } else {
            self.usage[i] as f64 / self.capacity[i] as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> ResourceMonitor {
        ResourceMonitor::new(1000, 5000)
    }

    #[test]
    fn starts_idle() {
        let m = mon();
        assert_eq!(m.usage(Resource::Llc), 0);
        assert_eq!(m.remaining(Resource::Llc), 1000);
        assert_eq!(m.capacity(Resource::MemBandwidth), 5000);
        assert_eq!(m.pressure(Resource::Llc), 0.0);
    }

    #[test]
    fn increments_and_decrements_are_exact() {
        let mut m = mon();
        m.increment_load(Resource::Llc, 400);
        m.increment_load(Resource::Llc, 300);
        assert_eq!(m.usage(Resource::Llc), 700);
        assert_eq!(m.remaining(Resource::Llc), 300);
        m.decrement_load(Resource::Llc, 400);
        assert_eq!(m.usage(Resource::Llc), 300);
    }

    #[test]
    fn resources_are_independent() {
        let mut m = mon();
        m.increment_load(Resource::Llc, 999);
        assert_eq!(m.usage(Resource::MemBandwidth), 0);
        m.increment_load(Resource::MemBandwidth, 100);
        assert_eq!(m.usage(Resource::Llc), 999);
    }

    #[test]
    fn oversubscription_saturates_unsigned_remaining() {
        let mut m = mon();
        m.increment_load(Resource::Llc, 1500);
        assert_eq!(m.remaining(Resource::Llc), 0);
        assert_eq!(m.remaining_signed(Resource::Llc), -500);
        assert!((m.pressure(Resource::Llc) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_bumps_on_every_change() {
        let mut m = mon();
        let e0 = m.epoch(Resource::Llc);
        m.increment_load(Resource::Llc, 1);
        let e1 = m.epoch(Resource::Llc);
        m.decrement_load(Resource::Llc, 1);
        let e2 = m.epoch(Resource::Llc);
        assert!(e0 < e1 && e1 < e2);
        // Other resource's epoch untouched.
        assert_eq!(m.epoch(Resource::MemBandwidth), 0);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn double_release_is_a_bug() {
        let mut m = mon();
        m.increment_load(Resource::Llc, 10);
        m.decrement_load(Resource::Llc, 11);
    }

    #[test]
    fn overflow_bucket_is_invisible_to_the_predicate_view() {
        let mut m = mon();
        m.increment_load(Resource::Llc, 300);
        m.increment_overflow(Resource::Llc, 900);
        // Nominal accounting is untouched by degraded admissions…
        assert_eq!(m.usage(Resource::Llc), 300);
        assert_eq!(m.remaining(Resource::Llc), 700);
        // …but the real pressure is visible for reporting.
        assert_eq!(m.overflow(Resource::Llc), 900);
        assert_eq!(m.total_usage(Resource::Llc), 1200);
        m.decrement_overflow(Resource::Llc, 900);
        assert_eq!(m.total_usage(Resource::Llc), 300);
    }

    #[test]
    fn overflow_changes_bump_the_epoch() {
        let mut m = mon();
        let e0 = m.epoch(Resource::Llc);
        m.increment_overflow(Resource::Llc, 5);
        assert!(m.epoch(Resource::Llc) > e0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_double_release_is_a_bug() {
        let mut m = mon();
        m.increment_overflow(Resource::Llc, 10);
        m.decrement_overflow(Resource::Llc, 11);
    }
}
