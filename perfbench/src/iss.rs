//! `paper-iss`: Tables III/IV as a load. Every registry row is deployed
//! on both evaluation networks with a seeded input, then
//! `PreparedFixed::run` (the `Cached` product path) runs round-robin
//! over the 22 rows. The only workload where the ISS crates do the work.

use std::time::Instant;

use iw_fann::FixedNet;
use iw_kernels::{registry, FixedRun, PreparedFixed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{
    check_attribution, iss_names, layer_self_s, trace_accounting, trace_lines, Layers, NETS,
};
use crate::stats::{median, peak_rss_mib};
use crate::trace::{self_by_req, Tracer};
use crate::{line, secs, write_spans, Checks, Ctx, EndToEnd, Run, Setups, Size};

/// Table III cycle counts of this model on the evaluation networks'
/// own inputs, `[net][Cortex-M4, IBEX, RI5CY, 8×RI5CY]` — the frozen
/// golden the tables test pins.
const GOLDEN_T3: [[u64; 4]; 2] = [
    [27_544, 44_617, 23_711, 5_725],
    [692_353, 1_121_363, 645_207, 93_930],
];

/// One deployed registry row.
struct Row {
    net: usize,
    id: &'static str,
    prep: PreparedFixed,
}

/// The evaluation networks with a seeded input each: the seed only
/// chooses the input vector; the weights are the tables' own.
fn seeded_nets(seed: u64) -> Vec<(FixedNet, Vec<i32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    iw_bench::evaluation_nets()
        .into_iter()
        .map(|(_, mlp, fixed, _)| {
            let input: Vec<f32> = (0..mlp.num_inputs())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let qin = fixed.quantize_input(&input);
            (fixed, qin)
        })
        .collect()
}

fn deploy(net: usize, fixed: &FixedNet, qin: &[i32], entry: &iw_kernels::TargetEntry) -> Row {
    Row {
        net,
        id: entry.id,
        prep: PreparedFixed::on(&*entry.machine(), fixed, qin).expect("every registry row deploys"),
    }
}

fn deploy_all(seed: u64) -> Vec<Row> {
    let nets = seeded_nets(seed);
    let mut rows = Vec::new();
    for (ni, (fixed, qin)) in nets.iter().enumerate() {
        for entry in registry() {
            rows.push(deploy(ni, fixed, qin, &entry));
        }
    }
    rows
}

/// Largest |ours / paper − 1| over the Table III cycle and Table IV µJ
/// rows, and whether every cycle count equals [`GOLDEN_T3`].
fn tables_check() -> (f64, Vec<String>) {
    let mut worst: f64 = 0.0;
    let mut problems = Vec::new();
    for (ni, (net, rows)) in iw_bench::table3_and_4().into_iter().enumerate() {
        for (ti, (cycles, energy)) in rows.iter().enumerate() {
            for row in [cycles, energy] {
                if let Some(r) = row.ratio() {
                    worst = worst.max((r - 1.0).abs());
                }
            }
            if cycles.ours as u64 != GOLDEN_T3[ni][ti] {
                problems.push(format!(
                    "{net} {}: {} cycles, golden {}",
                    cycles.label, cycles.ours, GOLDEN_T3[ni][ti]
                ));
            }
        }
    }
    (worst, problems)
}

/// What a sequence of rounds (one `run` of every row each) produced.
struct Rounds {
    round_s: Vec<f64>,
    /// Per row: the fastest `run` over all rounds.
    row_best_s: Vec<f64>,
    /// Per row: the first round's result.
    first: Vec<FixedRun>,
    /// Runs that failed or differed from their row's first result.
    mismatches: u64,
}

impl Rounds {
    /// Classifications per second from each row's fastest run.
    fn best_per_s(&self) -> f64 {
        self.row_best_s.len() as f64 / self.row_best_s.iter().sum::<f64>()
    }
}

/// Runs rounds while `keep_going(rounds done)`, calling `between` after
/// each round.
fn run_rounds(
    rows: &[Row],
    keep_going: impl Fn(usize) -> bool,
    between: &mut dyn FnMut(),
    t: &mut Tracer,
) -> Rounds {
    let mut out = Rounds {
        round_s: Vec::new(),
        row_best_s: vec![f64::INFINITY; rows.len()],
        first: Vec::new(),
        mismatches: 0,
    };
    while keep_going(out.round_s.len()) {
        let start = Instant::now();
        let round = out.round_s.len() as u64;
        t.span("run.round", round, |t| {
            for (k, row) in rows.iter().enumerate() {
                let run_start = Instant::now();
                let run = t.span("kernels.run", k as u64, |_| row.prep.run());
                out.row_best_s[k] = out.row_best_s[k].min(secs(run_start));
                match run {
                    Ok(run) if out.first.len() == k => out.first.push(run),
                    Ok(run) if out.first[k] == run => {}
                    _ => out.mismatches += 1,
                }
            }
        });
        out.round_s.push(secs(start));
        between();
    }
    out
}

/// Every row's first result must equal the uncached reference
/// interpreter's, bit for bit.
fn check_rows(checks: &mut Checks, rows: &[Row], rounds: &Rounds) {
    checks.attempted += (rounds.round_s.len() * rows.len()) as u64;
    checks.expect(rounds.mismatches == 0, rounds.mismatches, || {
        format!(
            "{} classifications differed from their row's first run",
            rounds.mismatches
        )
    });
    for (row, first) in rows.iter().zip(&rounds.first) {
        let reference = row.prep.run_uncached();
        checks.expect(reference.ok().as_ref() == Some(first), 1, || {
            format!(
                "{} {}: cached run differs from run_uncached",
                NETS[row.net], row.id
            )
        });
    }
}

pub fn paper(ctx: &Ctx) -> Run {
    let (mut setups, rows) = Setups::first(|| deploy_all(ctx.seed));
    let mut checks = Checks::default();
    let (paper_err, golden) = tables_check();
    checks.attempted += 8;
    checks.expect(golden.is_empty(), golden.len() as u64, || golden.join("; "));
    if ctx.trace {
        return traced(ctx, rows, paper_err, checks);
    }

    let start = Instant::now();
    let seconds = ctx.seconds;
    let rounds = run_rounds(
        &rows,
        |done| done == 0 || secs(start) < seconds,
        &mut || setups.sample(|| deploy_all(ctx.seed)),
        &mut Tracer::new(false),
    );
    let wall_s = secs(start);
    check_rows(&mut checks, &rows, &rounds);
    let classifications = rounds.round_s.len() * rows.len();
    let (setup_s, setup_n) = setups.best();
    let e2e = EndToEnd {
        setup_s,
        work_per_s: rounds.best_per_s(),
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
    };
    let lines = vec![
        format!(
            "  {} rounds over {} registry rows ({classifications} classifications) in {wall_s:.2} s",
            rounds.round_s.len(),
            rows.len(),
        ),
        line("setup_s", setup_s, "s", &format!("deploy all rows, best of {setup_n}")),
        line(
            "classifications_per_s",
            e2e.work_per_s,
            "1/s",
            "= work_per_s, fastest run of each row",
        ),
        line(
            "classifications_per_s_mean",
            classifications as f64 / wall_s,
            "1/s",
            "all runs",
        ),
        line(
            "round_ms_p50",
            median(&rounds.round_s) * 1e3,
            "ms",
            &format!("one run of every row, n={}", rounds.round_s.len()),
        ),
        line("peak_rss_mib", e2e.peak_rss_mib, "MiB", "this process"),
        line(
            "paper_max_rel_err",
            paper_err,
            "ratio",
            "max |ours/paper - 1| over Tables III/IV; a model, not validated on hardware",
        ),
    ];
    Run {
        checks,
        e2e: Some(e2e),
        layers: None,
        lines,
    }
}

/// Rounds per traced replay (and per untraced twin).
fn traced_rounds(size: Size) -> usize {
    match size {
        Size::Full => 30,
        Size::Tiny => 1,
    }
}

/// Traced `paper-iss`: the rounds untraced, then deploy + the same
/// rounds with a span around every deploy and every `run`.
fn traced(ctx: &Ctx, rows: Vec<Row>, paper_err: f64, mut checks: Checks) -> Run {
    let n_rounds = traced_rounds(ctx.size);
    let t = Instant::now();
    let plain = run_rounds(
        &rows,
        |done| done < n_rounds,
        &mut || {},
        &mut Tracer::new(false),
    );
    let untraced_wall_s = secs(t);
    drop(rows);

    let mut tracer = Tracer::new(true);
    let seed = ctx.seed;
    let (rows, rounds) = tracer.span("run.traced", 0, |t| {
        let nets = t.span("bench.config", 0, |_| seeded_nets(seed));
        let mut rows = Vec::new();
        for (ni, (fixed, qin)) in nets.iter().enumerate() {
            for entry in registry() {
                let req = rows.len() as u64;
                rows.push(t.span("kernels.deploy", req, |_| deploy(ni, fixed, qin, &entry)));
            }
        }
        let rounds = run_rounds(&rows, |done| done < n_rounds, &mut || {}, t);
        (rows, rounds)
    });
    check_rows(&mut checks, &rows, &plain);
    checks.attempted += (rounds.round_s.len() * rows.len()) as u64;
    checks.expect(
        rounds.first == plain.first && rounds.mismatches == 0,
        1,
        || "traced rounds differ from untraced rounds".into(),
    );

    let spans = tracer.spans();
    let mut layers = Layers::new();
    let by_name = layer_self_s(spans);
    let per_row = self_by_req(spans, "kernels.run");
    for (k, (row, first)) in rows.iter().zip(&rounds.first).enumerate() {
        let (minstr, instr) = iss_names(NETS[row.net], row.id);
        let busy_s = per_row.get(&(k as u64)).copied().unwrap_or(0) as f64 * 1e-9;
        let total_instr = first.instructions as f64 * n_rounds as f64;
        layers.set(&minstr, total_instr / busy_s.max(1e-12) / 1e6);
        layers.set(&instr, first.instructions as f64);
    }
    layers.set(
        "kernels.deploy_s",
        by_name.get("kernels.deploy").copied().unwrap_or(0.0),
    );
    layers.set(
        "bench.config_s",
        by_name.get("bench.config").copied().unwrap_or(0.0),
    );
    layers.set("kernels.paper_max_rel_err", paper_err);
    // The untraced twin ran the rounds only; compare like with like.
    let rounds_s: f64 = rounds.round_s.iter().sum();
    trace_accounting(&mut layers, spans, rounds_s, untraced_wall_s);
    check_attribution(&mut checks, &layers);

    let mut lines = trace_lines(&layers);
    let root_s = spans[0].duration_s();
    let run_s = by_name.get("kernels.run").copied().unwrap_or(0.0);
    lines.push(format!(
        "  shares of traced wall {root_s:.3} s: ISS runs {:.4}, deploy {:.4}",
        run_s / root_s,
        layers.get("kernels.deploy_s") / root_s
    ));
    write_spans(ctx, "paper-iss", &tracer, &mut lines);
    Run {
        checks,
        e2e: None,
        layers: Some(layers),
        lines,
    }
}
