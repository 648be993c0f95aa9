//! Per-device regression pins for the event engine.
//!
//! The fleet goldens (D3, D4, D5, the metrics exposition) pin
//! aggregates. This test pins individual devices — their
//! [`iw_sim::DeviceResult::digest`], event count and queue high-water
//! mark — chosen so that together they reach every component and every
//! event kind: BLE scans and gateway outages, per-result notifications
//! and batched sync flushes, retry/backoff and dropped episodes,
//! signal-fault gating, adaptive target selection with fault-aware
//! backoff, and a brownout that recovers. Two more pins run with impulse
//! costs (zero-length acquisition window, zero-duration compute job), so
//! whole acquire→compute chains dispatch at one instant through the
//! engine's same-instant lane; the adaptive one also ties a GaugeTick
//! with a PolicyTick, so dispatching the chain ahead of the older
//! GaugeTick changes its digest. A change to event routing or ordering
//! that slips past the aggregates fails here, device by device.
//!
//! The values were captured under the frozen default seed (2020). Event
//! counts and queue depth are outside the digest, so they are pinned
//! separately: routing must not add, drop or fold a single event.

use iw_harvest::EnvProfile;
use iw_sim::{ComputeJob, DeviceResult, FaultKind, FaultProfile, FleetConfig};

/// One pinned device: where it comes from and what it must produce.
struct Pin {
    name: &'static str,
    index: usize,
    digest: u64,
    events: u64,
    queue_high_water: u64,
}

/// Runs `pin`'s device of `cfg` and checks it against the pin.
fn check(cfg: &FleetConfig, pin: &Pin) -> DeviceResult {
    let r = cfg.run_device(pin.index);
    assert_eq!(
        (r.digest(), r.events, r.queue_high_water),
        (pin.digest, pin.events, pin.queue_high_water),
        "{} (device {}) drifted: got digest {:#018x}, {} events, queue high-water {}",
        pin.name,
        pin.index,
        r.digest(),
        r.events,
        r.queue_high_water
    );
    r
}

#[test]
fn d4_harsh_device_with_contacts_and_gateway_outage() {
    let cfg = iw_bench::d4_fleet_config(27, 1, iw_bench::SEED, FaultProfile::Harsh);
    let pin = Pin {
        name: "d4-harsh indoor-6h/active/fixed-24",
        index: 6,
        digest: 0xad64_6e9e_6d21_60cc,
        events: 173_134,
        queue_high_water: 13,
    };
    let r = check(&cfg, &pin);
    let scenario = cfg.scenario.as_ref().expect("D4 carries a scenario");
    assert!(scenario
        .device_fault_windows(pin.index)
        .iter()
        .any(|w| w.kind == FaultKind::BleLoss));
    assert!(r.contacts_observed > 0 && r.contacts_missed > 0);
    assert!(r.contacts_uplinked > 0);
    assert!(r.reliability.sync_retried > 0 && r.reliability.sync_dropped > 0);
    assert!(r.reliability.degraded_windows > 0);
    assert!(r.reliability.brownouts > 0);
}

#[test]
fn d3_duty_cycled_device_batches_its_radio() {
    let cfg = iw_bench::d3_fleet_config(27, 1, iw_bench::SEED, FaultProfile::Harsh);
    let pin = Pin {
        name: "d3-harsh indoor-6h/baseline/duty-300s",
        index: 21,
        digest: 0xece7_83c5_92b9_138a,
        events: 148_079,
        queue_high_water: 12,
    };
    let r = check(&cfg, &pin);
    assert_eq!(r.policy, "duty-300s");
    assert!(r.reliability.sync_ok > 0 && r.reliability.sync_dropped > 0);
    assert!(r.reliability.brownouts > 0);
}

#[test]
fn d3_clean_device_runs_the_fault_free_path() {
    let cfg = iw_bench::d3_fleet_config(27, 1, iw_bench::SEED, FaultProfile::Clean);
    let pin = Pin {
        name: "d3-clean sunny-40klx/active/fixed-24",
        index: 7,
        digest: 0x4015_90ec_90f9_ff86,
        events: 259_796,
        queue_high_water: 6,
    };
    let r = check(&cfg, &pin);
    assert_eq!(r.faults.total(), 0);
    assert!(r.detections > 0);
}

#[test]
fn d5_adaptive_device_selects_targets_and_backs_off() {
    let candidates = iw_bench::d5_candidates(iw_bench::SEED);
    let candidate = candidates
        .iter()
        .find(|c| c.name == "ramp36-f35-cl")
        .expect("ramp36-f35-cl candidate");
    let cfg =
        iw_bench::d5_fleet_config(9, 1, iw_bench::SEED, candidate, iw_bench::d5_target_jobs());
    let pin = Pin {
        name: "d5 indoor-6h/sedentary/ramp36-f35-cl",
        index: 0,
        digest: 0x88d3_1864_7c32_32d5,
        events: 100_920,
        queue_high_water: 10,
    };
    let r = check(&cfg, &pin);
    assert!(r.adaptive);
    assert!(r.target_m4 > 0 && r.target_ibex > 0 && r.target_cluster > 0);
    assert!(r.backoff_skips > 0 && r.sync_stretches > 0);
}

/// The D3 harsh cell through a dark day and then a sunny one: the
/// fixed-rate wearer drains through the cutoff in the dark and cold
/// starts once the sun recharges the cell.
fn dark_then_sunny_config() -> FleetConfig {
    let mut cfg = iw_bench::d3_fleet_config(9, 1, iw_bench::SEED, FaultProfile::Harsh);
    let mut env = EnvProfile::dark_day(86_400.0);
    env.segments.extend(EnvProfile::sunny_day(40.0).segments);
    cfg.environments = vec![("dark-then-sunny".into(), env)];
    cfg
}

#[test]
fn brownout_device_recovers_on_the_second_day() {
    let cfg = dark_then_sunny_config();
    let pin = Pin {
        name: "dark-then-sunny/baseline/fixed-24",
        index: 1,
        digest: 0x6820_bf1e_6bad_3200,
        events: 287_922,
        queue_high_water: 12,
    };
    let r = check(&cfg, &pin);
    assert!(r.reliability.brownouts > 0 && r.reliability.recoveries > 0);
}

#[test]
fn same_instant_chain_device_with_impulse_costs() {
    // The brownout cell again, with a zero-length acquisition window and
    // a zero-duration compute job: the sensor and compute components
    // take their impulse paths, so every tick's AcquireStart, AcquireEnd,
    // ComputeStart and ComputeEnd dispatch at one instant.
    let mut cfg = dark_then_sunny_config();
    cfg.costs.acquisition_s = 0.0;
    cfg.costs.compute = ComputeJob::analytic(0.0, cfg.costs.compute.energy_j);
    let pin = Pin {
        name: "dark-then-sunny/baseline/fixed-24, impulse costs",
        index: 1,
        digest: 0xe435_3903_4812_c474,
        events: 288_994,
        queue_high_water: 11,
    };
    let r = check(&cfg, &pin);
    assert_eq!(r.policy, "fixed-24");
    assert!(r.reliability.brownouts == 1 && r.reliability.recoveries == 1);
}

#[test]
fn same_instant_chain_reads_the_gauge_after_a_tied_gauge_tick() {
    // An adaptive device with impulse costs on every target. When a
    // GaugeTick and a PolicyTick fall on the same microsecond, the
    // GaugeTick was scheduled first, so it must dispatch before the
    // policy's zero-delay AcquireStart → AcquireEnd → ComputeStart
    // chain, and the target rule reads the new fuel-gauge bias. Letting
    // the same-instant chain overtake the tied GaugeTick changes which
    // target runs, and the digest.
    let candidates = iw_bench::d5_candidates(iw_bench::SEED);
    let candidate = candidates
        .iter()
        .find(|c| c.name == "ramp24-f35-cl")
        .expect("ramp24-f35-cl candidate");
    let jobs = iw_bench::d5_target_jobs().map(|j| ComputeJob::analytic(0.0, j.energy_j));
    let mut cfg = iw_bench::d5_fleet_config(9, 1, iw_bench::SEED, candidate, jobs);
    cfg.costs.acquisition_s = 0.0;
    let pin = Pin {
        name: "d5 indoor-6h/sedentary/ramp24-f35-cl, impulse costs",
        index: 0,
        digest: 0x7616_2754_6cdc_e7c7,
        events: 71_376,
        queue_high_water: 10,
    };
    let r = check(&cfg, &pin);
    assert!(r.adaptive);
    assert!(r.target_m4 > 0 && r.target_ibex > 0 && r.target_cluster > 0);
}
