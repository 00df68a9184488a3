//! Open-system overload control, end to end: the deterministic traffic
//! engine drives the extension into sustained overload (with faults
//! composed on top), the exact call sequence is recorded, and the whole
//! schedule replays through the `rda-check` differential oracle with
//! zero divergence — the acceptance gate of the overload subsystem.

use rda_check::{doc_from_calls, replay};
use rda_core::{mb, BreakerConfig, OverloadConfig, PolicyKind, RdaConfig, ShedPolicy};
use rda_machine::MachineConfig;
use rda_sim::runner::DEFAULT_ROOT_SEED;
use rda_sim::{FaultConfig, TrafficConfig, TrafficSim};
use rda_simcore::{Fnv1a64, SplitMix64};

fn rda_with(policy: ShedPolicy) -> RdaConfig {
    RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict).with_overload(
        OverloadConfig {
            waitlist_cap: 8,
            shed_policy: policy,
            deadline_cycles: Some(30_000_000),
            breaker: Some(BreakerConfig {
                high_water: mb(14.0),
                low_water: mb(8.0),
                trip_after: 3,
                recover_after: 3,
                shed_min_demand: mb(1.0),
            }),
        },
    )
}

/// A sustained 10×-capacity run with every fault class active, under
/// each shedding policy, replays call-for-call against the reference
/// model: every shed, expiry, retry, breaker trip, and fault-driven
/// reclamation the implementation performed is re-derived identically.
#[test]
fn recorded_overload_fault_schedules_replay_with_zero_divergence() {
    for policy in [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DegradeToOverflow,
    ] {
        let rda = rda_with(policy);
        let mut traffic = TrafficConfig::web_default(15_000.0, 0.05);
        traffic.record_calls = true;
        let sim = TrafficSim::new(traffic, rda.clone()).with_faults(FaultConfig::uniform(0.1));
        let result = sim.run(7);
        assert!(
            result.rda.shed > 0,
            "{policy:?}: overload run never shed — the schedule exercises nothing"
        );
        assert!(result.retries > 0, "{policy:?}: no retries recorded");

        let calls = result.calls.expect("record_calls was set");
        let doc = doc_from_calls(rda, &calls);
        let report = replay(&doc).unwrap_or_else(|d| panic!("{policy:?}: diverged: {d}"));
        assert_eq!(report.steps, doc.events.len(), "{policy:?}");
    }
}

/// The recorded schedule is itself a pure function of the seed: two
/// recordings of the same run are event-for-event identical, and the
/// trace document round-trips through its own text format.
#[test]
fn recorded_schedules_are_deterministic_and_round_trip() {
    let rda = rda_with(ShedPolicy::RejectOldest);
    let mut traffic = TrafficConfig::web_default(10_000.0, 0.02);
    traffic.record_calls = true;
    let sim = TrafficSim::new(traffic, rda.clone()).with_faults(FaultConfig::uniform(0.2));
    let a = doc_from_calls(rda.clone(), &sim.run(3).calls.unwrap());
    let b = doc_from_calls(rda, &sim.run(3).calls.unwrap());
    assert_eq!(a, b, "same seed must record the same schedule");
    let reparsed = rda_check::TraceDoc::parse(&a.to_text()).expect("round-trip parse");
    assert_eq!(reparsed, a, "text round-trip changed the schedule");
    replay(&a).expect("recorded schedule replays clean");
}

/// Deadline expiry surfaces end to end: with a deadline shorter than
/// the queue drain time, overload produces expired requests, and the
/// replayed model agrees on the exact count.
#[test]
fn deadline_expiries_match_between_engine_and_model() {
    let mut rda = rda_with(ShedPolicy::RejectNewest);
    if let Some(o) = &mut rda.overload {
        o.deadline_cycles = Some(4_000_000); // ~2 ms: tighter than p95
        o.breaker = None;
    }
    let mut traffic = TrafficConfig::web_default(12_000.0, 0.03);
    traffic.record_calls = true;
    let sim = TrafficSim::new(traffic, rda.clone());
    let result = sim.run(11);
    assert!(
        result.expired > 0,
        "tight deadline under overload must expire waiters: {result:?}"
    );
    assert_eq!(result.expired, result.rda.expired);
    let doc = doc_from_calls(rda, &result.calls.unwrap());
    let report = replay(&doc).expect("replays clean");
    assert_eq!(report.steps, doc.events.len());
}

/// The `exp_overload --smoke` grid (2 rates × 3 shed policies × fault
/// rates {0, 0.1}, 50 ms windows, default root seed) folds to a pinned
/// sweep digest. This is the whole traffic engine's golden value: every
/// arrival, shed, expiry, retry and fault-driven reclamation of twelve
/// cells feeds it, so any change to admission order or outcome shows.
#[test]
fn overload_smoke_sweep_digest_is_pinned() {
    let machine = MachineConfig::xeon_e5_2420();
    let mut digest = Fnv1a64::new();
    let mut index = 0usize;
    for rate in [2_000.0, 12_000.0] {
        for policy in [
            ShedPolicy::RejectNewest,
            ShedPolicy::RejectOldest,
            ShedPolicy::DegradeToOverflow,
        ] {
            for fault_rate in [0.0, 0.1] {
                let rda = RdaConfig::for_machine(&machine, PolicyKind::Strict).with_overload(
                    OverloadConfig {
                        waitlist_cap: 16,
                        shed_policy: policy,
                        deadline_cycles: Some(40_000_000),
                        breaker: Some(BreakerConfig {
                            high_water: mb(14.0),
                            low_water: mb(8.0),
                            trip_after: 4,
                            recover_after: 4,
                            shed_min_demand: mb(1.0),
                        }),
                    },
                );
                let mut sim = TrafficSim::new(TrafficConfig::web_default(rate, 0.05), rda);
                if fault_rate > 0.0 {
                    sim = sim.with_faults(FaultConfig::uniform(fault_rate));
                }
                let r = sim.run(SplitMix64::derive_stream(DEFAULT_ROOT_SEED, index as u64));
                digest.write_usize(index).write_u64(r.digest());
                index += 1;
            }
        }
    }
    assert_eq!(digest.finish(), 0x74ac_13ff_1d47_add0);
}
