//! Deterministic Pareto policy search CLI: evaluate every candidate
//! [`iw_sim::PolicySpec`] as its own fleet run on the harsh 40 J stress
//! cell, print the D5 table, and write the machine-readable results to
//! `BENCH_policy.json`.
//!
//! ```text
//! cargo run --release -p iw-bench --bin policy-search
//! cargo run --release -p iw-bench --bin policy-search -- --devices 256 --threads 8
//! cargo run --release -p iw-bench --bin policy-search -- --devices 64 --candidates 6 --check
//! ```
//!
//! `--candidates N` truncates the candidate list to its first N entries
//! (the three frozen baselines always lead, so tiny grids keep their
//! reference policies). `--check` is the CI gate: it re-runs the whole
//! search on a different thread count and exits non-zero unless every
//! per-candidate digest (and the combined search digest) is
//! bit-identical, and unless at least one searched adaptive policy
//! dominates the `aware-24` baseline (uptime no worse, strictly more
//! detections per day).

use iw_bench::{d5_candidates, d5_policy_search, d5_search_digest, PolicyOutcome};

struct Args {
    devices: usize,
    threads: usize,
    seed: u64,
    candidates: usize,
    out: Option<String>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        devices: 96,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        seed: iw_bench::SEED,
        candidates: 0,
        out: Some("BENCH_policy.json".into()),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        match flag.as_str() {
            "--devices" => args.devices = value("--devices")? as usize,
            "--threads" => args.threads = value("--threads")? as usize,
            "--seed" => args.seed = value("--seed")?,
            "--candidates" => args.candidates = value("--candidates")? as usize,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--no-out" => args.out = None,
            "--check" => args.check = true,
            other => {
                return Err(format!(
                    "unknown flag '{other}' (expected --devices N, --threads N, --seed N, \
                     --candidates N, --out PATH, --no-out, --check)"
                ))
            }
        }
    }
    if args.devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.candidates > 0 && args.candidates < 3 {
        return Err("--candidates must be >= 3 (the baselines always run)".into());
    }
    Ok(args)
}

/// Structured stderr log line, mirroring the `fleet` binary's format so
/// interleaved CI output stays attributable.
fn plog(phase: &str, msg: &str) {
    eprintln!("policy-search[{phase}] {msg}");
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// Renders the outcome set as a stable, dependency-free JSON document.
/// Candidate names are machine-generated (`[a-z0-9-]`), so no string
/// escaping is needed beyond trusting our own generator.
fn render_json(args: &Args, outcomes: &[PolicyOutcome]) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"bench\": \"policy-search\",\n");
    j.push_str("  \"cell\": \"d3-harsh-40J\",\n");
    j.push_str(&format!("  \"seed\": {},\n", args.seed));
    j.push_str(&format!("  \"devices\": {},\n", args.devices));
    j.push_str(&format!("  \"threads\": {},\n", args.threads));
    j.push_str("  \"candidates\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"adaptive\": {}, \"uptime\": {}, \
             \"detections_per_day\": {}, \"energy_per_detection_j\": {}, \
             \"target_m4\": {}, \"target_ibex\": {}, \"target_cluster\": {}, \
             \"backoff_skips\": {}, \"sync_stretches\": {}, \
             \"digest\": \"{:016x}\", \"pareto\": {}}}{}\n",
            o.name,
            o.adaptive,
            json_f64(o.uptime),
            json_f64(o.detections_per_day),
            json_f64(o.energy_per_detection_j),
            o.target_m4,
            o.target_ibex,
            o.target_cluster,
            o.backoff_skips,
            o.sync_stretches,
            o.digest,
            o.pareto,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    let front: Vec<String> = outcomes
        .iter()
        .filter(|o| o.pareto)
        .map(|o| format!("\"{}\"", o.name))
        .collect();
    j.push_str(&format!("  \"pareto_front\": [{}],\n", front.join(", ")));
    j.push_str(&format!(
        "  \"search_digest\": \"{:016x}\"\n",
        d5_search_digest(outcomes)
    ));
    j.push_str("}\n");
    j
}

/// The acceptance criterion: some searched adaptive policy must Pareto-
/// dominate the `aware-24` baseline on the visible axes — uptime no
/// worse, strictly more detections per day.
fn dominator_over_aware(outcomes: &[PolicyOutcome]) -> Option<&PolicyOutcome> {
    let aware = outcomes.iter().find(|o| o.name == "aware-24")?;
    outcomes.iter().find(|o| {
        o.adaptive && o.uptime >= aware.uptime && o.detections_per_day > aware.detections_per_day
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            plog("args", &e);
            std::process::exit(2);
        }
    };

    let mut candidates = d5_candidates(args.seed);
    if args.candidates > 0 {
        candidates.truncate(args.candidates);
    }
    // Reject malformed specs up front with the offending constraint —
    // a degenerate candidate would otherwise just sit idle in the table.
    for candidate in &candidates {
        if let Err(e) = candidate.spec.validate() {
            plog(
                "validate",
                &format!("invalid candidate '{}': {e}", candidate.name),
            );
            std::process::exit(2);
        }
    }

    plog(
        "run",
        &format!(
            "{} candidates x {} devices on {} threads (seed {})",
            candidates.len(),
            args.devices,
            args.threads,
            args.seed
        ),
    );
    let outcomes = d5_policy_search(args.devices, args.threads, args.seed, &candidates);
    print!(
        "{}",
        iw_bench::render_d5_table(args.devices, args.threads, &outcomes)
    );

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, render_json(&args, &outcomes)) {
            plog("out", &format!("cannot write {path}: {e}"));
            std::process::exit(1);
        }
        plog("out", &format!("wrote {path}"));
    }

    if args.check {
        // Determinism gate: the identical search on a different thread
        // topology must land on bit-identical per-candidate digests.
        let other_threads = if args.threads == 1 { 2 } else { 1 };
        let rerun = d5_policy_search(args.devices, other_threads, args.seed, &candidates);
        for (a, b) in outcomes.iter().zip(&rerun) {
            if a.digest != b.digest {
                plog(
                    "check",
                    &format!(
                        "digest mismatch for '{}': {:016x} ({} threads) vs {:016x} ({} threads)",
                        a.name, a.digest, args.threads, b.digest, other_threads
                    ),
                );
                std::process::exit(1);
            }
        }
        if d5_search_digest(&outcomes) != d5_search_digest(&rerun) {
            plog("check", "combined search digest mismatch across topologies");
            std::process::exit(1);
        }
        match dominator_over_aware(&outcomes) {
            Some(winner) => plog(
                "check",
                &format!(
                    "'{}' dominates aware-24 ({:.2}% uptime, {:.0} det/day)",
                    winner.name,
                    winner.uptime * 100.0,
                    winner.detections_per_day
                ),
            ),
            None => {
                plog("check", "no searched adaptive policy dominates aware-24");
                std::process::exit(1);
            }
        }
        plog(
            "check",
            &format!(
                "ok: {} candidates bit-identical on {} and {} threads",
                outcomes.len(),
                args.threads,
                other_threads
            ),
        );
    }
}
