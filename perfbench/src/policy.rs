//! `policy-search`: the D5 Pareto policy search over all
//! `d5_candidates(seed)` on the harsh 40 J cell, 2 threads. The only
//! workload that runs the adaptive `iw-policy` paths (SoC ramp, backoff,
//! sync stretch, M4/Ibex/cluster target selection).

use std::time::Instant;

use iw_bench::{
    d5_candidates, d5_fleet_config, d5_policy_search, d5_search_digest, d5_target_jobs,
    PolicyCandidate, PolicyOutcome,
};

use crate::layers::{check_attribution, layer_self_s, trace_accounting, trace_lines, Layers};
use crate::stats::{median, peak_rss_mib};
use crate::trace::{durations_s, Tracer};
use crate::{line, max_of, secs, write_spans, Checks, Ctx, EndToEnd, Run, Setups, Size};

/// Threads of the timed searches (the machine has 2 cores).
const THREADS: usize = 2;

/// One device per environment × wearer cell of the D3 fleet: short
/// searches, so a run holds many of them.
const DEVICES: usize = 9;

/// The product's acceptance rule (`policy-search --check`): some
/// adaptive candidate has uptime no worse than `aware-24` and strictly
/// more detections per day.
fn adaptive_dominates_aware(outcomes: &[PolicyOutcome]) -> bool {
    let Some(aware) = outcomes.iter().find(|o| o.name == "aware-24") else {
        return false;
    };
    outcomes.iter().any(|o| {
        o.adaptive && o.uptime >= aware.uptime && o.detections_per_day > aware.detections_per_day
    })
}

/// Compares one search's per-candidate digests with the reference's;
/// every candidate is one attempted unit.
fn check_search(
    checks: &mut Checks,
    got: &[(String, u64)],
    reference: &[PolicyOutcome],
    what: &str,
) {
    checks.attempted += reference.len() as u64;
    checks.expect(got.len() == reference.len(), reference.len() as u64, || {
        format!("{what}: {} candidates, want {}", got.len(), reference.len())
    });
    for ((name, digest), want) in got.iter().zip(reference) {
        checks.expect(*digest == want.digest && *name == want.name, 1, || {
            format!(
                "{what}: candidate {name} digest {digest:016x} vs reference {:016x}",
                want.digest
            )
        });
    }
}

fn digests(outcomes: &[PolicyOutcome]) -> Vec<(String, u64)> {
    outcomes
        .iter()
        .map(|o| (o.name.clone(), o.digest))
        .collect()
}

/// The search's set-up: target jobs from the ISS, the candidate list,
/// and the names of candidates that fail validation.
fn setup(seed: u64) -> (Vec<PolicyCandidate>, Vec<String>) {
    std::hint::black_box(d5_target_jobs());
    let candidates = d5_candidates(seed);
    let invalid = candidates
        .iter()
        .filter_map(|c| c.spec.validate().err().map(|e| format!("{}: {e}", c.name)))
        .collect();
    (candidates, invalid)
}

/// Search inputs per run. The four random candidates make one search's
/// cost swing by ±10 % between seeds, so a run searches several candidate
/// sets and fleets derived from its seed, and its figure is their sum.
fn input_count(size: Size) -> u64 {
    match size {
        Size::Full => 4,
        Size::Tiny => 1,
    }
}

/// Seed of search input `k`; input 0 uses the run's own seed.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k << 32)
}

/// One search input with its reference outcomes.
struct Input {
    seed: u64,
    candidates: Vec<PolicyCandidate>,
    reference: Vec<PolicyOutcome>,
}

/// Builds input `seed`: validates its candidates and computes the
/// reference — the same search on one thread, a different topology,
/// outside any timed region — and checks that an adaptive candidate
/// dominates `aware-24` there.
fn input(
    checks: &mut Checks,
    seed: u64,
    (candidates, invalid): (Vec<PolicyCandidate>, Vec<String>),
) -> Input {
    checks.expect(invalid.is_empty(), invalid.len() as u64, || {
        format!("seed {seed}: invalid candidates: {}", invalid.join("; "))
    });
    let reference = d5_policy_search(DEVICES, 1, seed, &candidates);
    checks.attempted += 1;
    checks.expect(adaptive_dominates_aware(&reference), 1, || {
        format!("seed {seed}: no adaptive candidate dominates aware-24")
    });
    Input {
        seed,
        candidates,
        reference,
    }
}

pub fn search(ctx: &Ctx) -> Run {
    let mut checks = Checks::default();
    let (mut setups, first) = Setups::first(|| setup(ctx.seed));
    let mut inputs: Vec<Input> = vec![input(&mut checks, ctx.seed, first)];
    if ctx.trace {
        let input = inputs.pop().expect("one input");
        return traced(ctx, &input.candidates, &input.reference, checks);
    }
    for k in 1..input_count(ctx.size) {
        let seed = input_seed(ctx.seed, k);
        inputs.push(input(&mut checks, seed, setup(seed)));
    }

    let start = Instant::now();
    let mut searches = Vec::new();
    while searches.len() < inputs.len() || secs(start) < ctx.seconds {
        setups.sample(|| setup(ctx.seed));
        let k = searches.len() % inputs.len();
        let input = &inputs[k];
        let t = Instant::now();
        let outcomes = d5_policy_search(DEVICES, THREADS, input.seed, &input.candidates);
        searches.push((k, secs(t), outcomes));
    }
    let measured_s = secs(start);
    let mut best_s = vec![f64::INFINITY; inputs.len()];
    for (j, (k, wall_s, outcomes)) in searches.iter().enumerate() {
        let input = &inputs[*k];
        best_s[*k] = best_s[*k].min(*wall_s);
        check_search(
            &mut checks,
            &digests(outcomes),
            &input.reference,
            &format!("search {j}"),
        );
        checks.attempted += 1;
        checks.expect(
            d5_search_digest(outcomes) == d5_search_digest(&input.reference),
            1,
            || format!("search {j}: search digest differs from the reference"),
        );
    }
    let walls: Vec<f64> = searches.iter().map(|(_, s, _)| *s).collect();
    let candidates: usize = inputs.iter().map(|i| i.candidates.len()).sum();
    let (setup_s, setup_n) = setups.best();
    let e2e = EndToEnd {
        setup_s,
        work_per_s: candidates as f64 / best_s.iter().sum::<f64>(),
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
    };
    let lines = vec![
        format!(
            "  {} searches over {} inputs ({candidates} candidates) x {DEVICES} devices on \
             {THREADS} threads in {measured_s:.2} s, search digest {:016x} at seed {}",
            searches.len(),
            inputs.len(),
            d5_search_digest(&inputs[0].reference),
            ctx.seed
        ),
        line(
            "setup_s",
            setup_s,
            "s",
            &format!("target jobs + candidates, best of {setup_n}"),
        ),
        line(
            "candidates_per_s",
            e2e.work_per_s,
            "1/s",
            "= work_per_s, fastest search of each input",
        ),
        line(
            "candidates_per_s_mean",
            candidates as f64 / inputs.len() as f64 * walls.len() as f64
                / walls.iter().sum::<f64>(),
            "1/s",
            "all searches",
        ),
        line(
            "search_ms_p50",
            median(&walls) * 1e3,
            "ms",
            &format!("n={}", searches.len()),
        ),
        line("peak_rss_mib", e2e.peak_rss_mib, "MiB", "this process"),
    ];
    Run {
        checks,
        e2e: Some(e2e),
        layers: None,
        lines,
    }
}

/// Traced `policy-search`: the product call once untraced, then the
/// same search replayed through the public functions it is made of —
/// target jobs, then per candidate validate → config → fleet run.
fn traced(
    ctx: &Ctx,
    candidates: &[PolicyCandidate],
    reference: &[PolicyOutcome],
    mut checks: Checks,
) -> Run {
    let t = Instant::now();
    let untraced = d5_policy_search(DEVICES, THREADS, ctx.seed, candidates);
    let untraced_wall_s = secs(t);
    check_search(
        &mut checks,
        &digests(&untraced),
        reference,
        "untraced search",
    );

    let mut tracer = Tracer::new(true);
    let seed = ctx.seed;
    let reports = tracer.span("run.traced", 0, |t| {
        let jobs = t.span("kernels.budget", 0, |_| d5_target_jobs());
        candidates
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let req = k as u64;
                t.span("run.candidate", req, |t| {
                    t.span("policy.validate", req, |_| c.spec.validate())
                        .expect("candidates validated in set-up");
                    let cfg = t.span("bench.config", req, |_| {
                        d5_fleet_config(DEVICES, THREADS, seed, c, jobs)
                    });
                    (c.name.clone(), t.span("sim.fleet_run", req, |_| cfg.run()))
                })
            })
            .collect::<Vec<_>>()
    });
    // The rest of the untraced set-up, outside the root: the search gets
    // its candidates made.
    tracer.span("bench.candidates", 0, |_| d5_candidates(seed));
    let got: Vec<(String, u64)> = reports.iter().map(|(n, r)| (n.clone(), r.digest)).collect();
    check_search(&mut checks, &got, reference, "traced replay");

    let spans = tracer.spans();
    let by_name = layer_self_s(spans);
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let mut layers = Layers::new();
    let fleet_run_s = self_s("sim.fleet_run");
    let events: u64 = reports.iter().map(|(_, r)| r.events).sum();
    let days: f64 = reports.iter().map(|(_, r)| r.simulated_s / 86_400.0).sum();
    layers.set("sim.run_device_s", fleet_run_s);
    layers.set("sim.ns_per_event", fleet_run_s * 1e9 / events.max(1) as f64);
    layers.set("sim.events_per_device_day", events as f64 / days.max(1e-9));
    layers.set(
        "sim.queue_high_water_max",
        reports
            .iter()
            .filter_map(|(_, r)| r.metrics.queue_high_water.max())
            .max()
            .unwrap_or(0) as f64,
    );
    let sum = |f: &dyn Fn(&iw_sim::FleetReport) -> u64| {
        reports.iter().map(|(_, r)| f(r)).sum::<u64>() as f64
    };
    layers.set("fault.episodes", sum(&|r| r.faults.total()));
    layers.set(
        "fault.gated_windows",
        sum(&|r| r.reliability.degraded_windows),
    );
    layers.set("fault.brownouts", sum(&|r| r.reliability.brownouts));
    layers.set("fault.ble_retries", sum(&|r| r.reliability.sync_retried));
    layers.set("fault.ble_dropped", sum(&|r| r.reliability.sync_dropped));
    layers.set("policy.target_m4", sum(&|r| r.policies[0].target_m4));
    layers.set("policy.target_ibex", sum(&|r| r.policies[0].target_ibex));
    layers.set(
        "policy.target_cluster",
        sum(&|r| r.policies[0].target_cluster),
    );
    layers.set(
        "policy.backoff_skips",
        sum(&|r| r.policies[0].backoff_skips),
    );
    layers.set(
        "policy.sync_stretches",
        sum(&|r| r.policies[0].sync_stretches),
    );
    let per_candidate = durations_s(spans, "run.candidate");
    layers.set("policy.candidate_s_p50", median(&per_candidate));
    layers.set("policy.candidate_s_max", max_of(&per_candidate));
    layers.set("kernels.budget_s", self_s("kernels.budget"));
    layers.set("bench.config_s", self_s("bench.config"));
    let root_s = spans[0].duration_s();
    trace_accounting(&mut layers, spans, root_s, untraced_wall_s);
    check_attribution(&mut checks, &layers);

    let mut lines = trace_lines(&layers);
    lines.push(format!(
        "  shares of traced wall {root_s:.3} s: fleet runs {:.4}, configs {:.4}, target jobs {:.4}, \
         validate {:.6}",
        fleet_run_s / root_s,
        self_s("bench.config") / root_s,
        self_s("kernels.budget") / root_s,
        self_s("policy.validate") / root_s,
    ));
    let setup_s = self_s("kernels.budget") + self_s("bench.candidates") + self_s("policy.validate");
    let candidate_s: f64 = per_candidate.iter().sum();
    lines.push(format!(
        "  ISS share of traced set-up {:.3} ms: {:.3}; per-candidate configs (each holds an X2 \
         budget) {:.4} of candidate wall",
        setup_s * 1e3,
        self_s("kernels.budget") / setup_s,
        self_s("bench.config") / candidate_s,
    ));
    write_spans(ctx, "policy-search", &tracer, &mut lines);
    Run {
        checks,
        e2e: None,
        layers: Some(layers),
        lines,
    }
}
