//! The scheduling predicate — Algorithm 1 of the paper.
//!
//! ```text
//! function TrySchedule(pp, resource)
//!     remaining ← resource.capacity − resource.usage
//!     outcome   ← remaining − pp.demand
//!     runnable  ← apply_policy(outcome, resource)
//!     if runnable then
//!         increment_load(pp.demand)
//!         schedule(get_process(pp))
//!     else
//!         waitlist(pp)
//! ```
//!
//! This module implements the *decision* half (the pure function); the
//! load increment and waitlisting side effects live in
//! [`crate::extension`], which owns the mutable state.

use crate::api::PpDemand;
use crate::monitor::ResourceMonitor;
use crate::policy::PolicyKind;

/// Verdict of the predicate for one progress period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admit: account the demand and let the OS schedule the process.
    Run,
    /// Deny: place the process on the resource waitlist.
    Pause,
}

/// Evaluate Algorithm 1 for a new period against the current load.
///
/// One guard beyond the paper's pseudocode: a demand that could *never*
/// be admitted (it exceeds the policy's usage limit even on an idle
/// resource) is admitted immediately rather than waitlisted forever —
/// pausing it could deadlock the workload, and running it degenerates
/// to the paper's stated scope ("individually, their working sets fit
/// within the capacity of the available caches").
pub fn try_schedule(demand: &PpDemand, monitor: &ResourceMonitor, policy: &PolicyKind) -> Decision {
    let capacity = monitor.capacity(demand.resource);
    let accounted = policy.effective_demand(demand.amount, capacity);
    let remaining = monitor.remaining_signed(demand.resource);
    decide(accounted, capacity, remaining, policy)
}

/// The decision core of Algorithm 1, on pre-resolved inputs: the
/// *accounted* demand (already policy-scaled by
/// [`PolicyKind::effective_demand`]), the resource's nominal capacity,
/// and its signed remaining space. Shared by [`try_schedule`] and the
/// waitlist drain (whose entries store their accounted demand, making
/// the registry lookup per probe unnecessary). Both therefore compute
/// bit-identical verdicts by construction.
pub fn decide(accounted: u64, capacity: u64, remaining: i128, policy: &PolicyKind) -> Decision {
    // Oversized-demand guard: admission can never succeed, so don't
    // deadlock the process.
    if accounted > policy.usage_limit(capacity) {
        return Decision::Run;
    }
    let outcome = remaining - accounted as i128;
    if policy.apply(outcome, capacity) {
        Decision::Run
    } else {
        Decision::Pause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{mb, PpDemand, Resource};
    use rda_machine::ReuseLevel;

    fn monitor_with_usage(capacity: u64, usage: u64) -> ResourceMonitor {
        let mut m = ResourceMonitor::new(capacity, u64::MAX / 2);
        if usage > 0 {
            m.increment_load(Resource::Llc, usage);
        }
        m
    }

    fn llc(amount: u64) -> PpDemand {
        PpDemand::llc(amount, ReuseLevel::High)
    }

    #[test]
    fn strict_admits_until_capacity() {
        let m = monitor_with_usage(mb(15.0), mb(12.0));
        assert_eq!(
            try_schedule(&llc(mb(3.0)), &m, &PolicyKind::Strict),
            Decision::Run
        );
        assert_eq!(
            try_schedule(&llc(mb(3.1)), &m, &PolicyKind::Strict),
            Decision::Pause
        );
    }

    #[test]
    fn compromise_admits_to_twice_capacity() {
        let m = monitor_with_usage(mb(15.0), mb(20.0)); // already oversubscribed
        let p = PolicyKind::compromise_default();
        assert_eq!(try_schedule(&llc(mb(10.0)), &m, &p), Decision::Run);
        assert_eq!(try_schedule(&llc(mb(10.1)), &m, &p), Decision::Pause);
    }

    #[test]
    fn default_only_never_pauses() {
        let m = monitor_with_usage(mb(15.0), mb(1000.0));
        assert_eq!(
            try_schedule(&llc(mb(500.0)), &m, &PolicyKind::DefaultOnly),
            Decision::Run
        );
    }

    #[test]
    fn oversized_demand_is_admitted_not_deadlocked() {
        // A 20 MB streaming working set on a 15 MB LLC can never pass
        // the strict predicate; it must run anyway.
        let m = monitor_with_usage(mb(15.0), 0);
        assert_eq!(
            try_schedule(&llc(mb(20.0)), &m, &PolicyKind::Strict),
            Decision::Run
        );
        // But a fitting demand arriving when the cache is *full* still
        // pauses (it can be admitted later).
        let busy = monitor_with_usage(mb(15.0), mb(15.0));
        assert_eq!(
            try_schedule(&llc(mb(1.0)), &busy, &PolicyKind::Strict),
            Decision::Pause
        );
    }

    #[test]
    fn partitioned_clamps_then_admits() {
        // Quota 25% of 15 MB = 3.75 MB accounted for a 20 MB demand.
        let p = PolicyKind::Partitioned { quota_frac: 0.25 };
        let m = monitor_with_usage(mb(15.0), mb(12.0));
        assert_eq!(try_schedule(&llc(mb(20.0)), &m, &p), Decision::Pause);
        let idle = monitor_with_usage(mb(15.0), mb(11.0));
        assert_eq!(try_schedule(&llc(mb(20.0)), &idle, &p), Decision::Run);
    }

    #[test]
    fn zero_demand_always_runs() {
        let m = monitor_with_usage(mb(15.0), mb(15.0));
        assert_eq!(
            try_schedule(&llc(0), &m, &PolicyKind::Strict),
            Decision::Run
        );
    }

    #[test]
    fn exact_fit_is_admitted() {
        let m = monitor_with_usage(mb(15.0), mb(10.0));
        assert_eq!(
            try_schedule(&llc(mb(5.0)), &m, &PolicyKind::Strict),
            Decision::Run
        );
    }
}
