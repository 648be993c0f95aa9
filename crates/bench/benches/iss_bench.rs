//! ISS-throughput bench: simulated instructions per second on the
//! pre-decoded (product) and uncached (reference) paths, on both
//! evaluation networks and all four paper targets.
//!
//! The two paths are timed **interleaved** — one sample of each per
//! round, best of five rounds kept — so the reported ratio is within-run
//! and immune to clock drift. Results land in `BENCH_iss.json` at the
//! repo root: per-target simulated Minstr/s for both paths, the
//! predecoded-over-uncached speedup and, on the cluster-scheduled rows,
//! the pre-decoded scheduler's picks, gated breaks and burst length.
//!
//! `--check` skips all timing and instead asserts that the two paths
//! are bit-identical for every registry target on both networks — the
//! fast identity smoke ci.sh runs:
//!
//! ```text
//! cargo bench -p iw-bench --bench iss_bench -- --check
//! ```

use std::time::Instant;

use iw_bench::evaluation_nets;
use iw_kernels::{registry, FixedTarget, PreparedFixed, SchedSummary};
use iw_metrics::Registry;

/// Rounds of interleaved timing per (network, target) row.
const ROUNDS: usize = 5;

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    } else {
        bench();
    }
}

/// Identity smoke: every registered target must produce bit-identical
/// runs on both interpreter paths, for both evaluation networks.
/// No timing loops — this is the ci.sh gate.
fn check() {
    let mut rows = 0;
    for (name, _, fixed, qin) in evaluation_nets() {
        for entry in registry() {
            let prep = PreparedFixed::on(&*entry.machine(), &fixed, &qin).expect("deploys");
            let fast = prep.run().expect("cached path runs");
            let reference = prep.run_uncached().expect("reference path runs");
            assert_eq!(
                fast,
                reference,
                "{name}/{id}: cached vs reference",
                id = entry.id
            );
            rows += 1;
        }
    }
    println!("iss_bench --check: {rows} target×network rows bit-identical on both paths");
}

/// One timed sample: wall-clock seconds of a single simulated
/// classification.
fn sample<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

struct RowResult {
    target: String,
    instructions: u64,
    uncached_s: f64,
    predecoded_s: f64,
    /// Pre-decoded-path scheduler statistics, on targets with an
    /// event-driven scheduler (the RI5CY rows).
    sched: Option<SchedSummary>,
}

impl RowResult {
    fn minstr(&self, seconds: f64) -> f64 {
        self.instructions as f64 / seconds / 1e6
    }
}

fn bench() {
    let mut out = String::from("{\n  \"workloads\": [\n");
    // Machine-readable mirror of the throughput table, in the same
    // sample schema the fleet `--metrics` exporter emits — one gauge
    // per (network, target, path).
    let reg = Registry::new();
    let nets = evaluation_nets();
    for (ni, (name, _, fixed, qin)) in nets.iter().enumerate() {
        println!("== iss_throughput/{name} ==");
        let mut rows: Vec<RowResult> = Vec::new();
        for target in FixedTarget::paper_targets() {
            // Deployment (kernel emission, assembly, weight image)
            // happens once, outside the timed region: the bench measures
            // simulator throughput, not code generation.
            let prep = PreparedFixed::new(target, fixed, qin).expect("deploys");
            let reference = prep.run_uncached().expect("target runs");
            let (fast, sched) = prep.run_decoded_stats().expect("target runs");
            assert_eq!(fast, reference, "cached path must be bit-identical");

            // Interleaved best-of-N: one sample of each path per round.
            let (mut u, mut p) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..ROUNDS {
                u = u.min(sample(|| prep.run_uncached().expect("runs")));
                p = p.min(sample(|| prep.run().expect("runs")));
            }
            let row = RowResult {
                target: target.name(),
                instructions: reference.instructions,
                uncached_s: u,
                predecoded_s: p,
                sched,
            };
            println!(
                "{target:<20} instrs={instructions:>9}  uncached={um:>7.2}  predecoded={pm:>7.2} \
                 Minstr/s  predecoded/uncached={r:.2}x",
                target = row.target,
                instructions = row.instructions,
                um = row.minstr(u),
                pm = row.minstr(p),
                r = u / p,
            );
            if let Some(s) = row.sched {
                println!(
                    "{:<20} sched: burst={:.4} ({} picks, {} gated breaks)",
                    "", s.avg_burst, s.picks, s.gated_breaks,
                );
            }
            for (path, seconds) in [
                ("uncached", row.uncached_s),
                ("predecoded", row.predecoded_s),
            ] {
                reg.gauge(
                    "iss_minstr_per_s",
                    &[("network", name), ("target", &row.target), ("path", path)],
                )
                .set(row.minstr(seconds));
            }
            let labels = [("network", name.as_str()), ("target", row.target.as_str())];
            reg.counter("iss_instructions", &labels)
                .add(row.instructions);
            rows.push(row);
        }

        out.push_str(&format!(
            "    {{\n      \"network\": {},\n      \"targets\": [\n",
            json_str(name)
        ));
        for (ri, row) in rows.iter().enumerate() {
            let sched = row.sched.map_or(String::new(), |s| {
                format!(
                    ",\n          \"decoded_picks\": {},\n          \"decoded_gated_breaks\": {},\n          \"decoded_avg_burst\": {:.4}",
                    s.picks, s.gated_breaks, s.avg_burst
                )
            });
            out.push_str(&format!(
                "        {{\n          \"target\": {target},\n          \"instructions\": {instructions},\n          \"minstr_per_s\": {{\"uncached\": {um:.3}, \"predecoded\": {pm:.3}}},\n          \"speedup_predecoded_vs_uncached\": {sp:.3}{sched}\n        }}{comma}\n",
                target = json_str(&row.target),
                instructions = row.instructions,
                um = row.minstr(row.uncached_s),
                pm = row.minstr(row.predecoded_s),
                sp = row.uncached_s / row.predecoded_s,
                comma = if ri + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if ni + 1 < nets.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"metrics\": ");
    out.push_str(&reg.snapshot().to_json());
    out.push_str("\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_iss.json");
    std::fs::write(path, out).expect("writes BENCH_iss.json");
    println!("wrote {path}");
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
