//! The two fleet workloads.
//!
//! * `fleet-clean` — the D3 fleet with no faults and no scenario, folded
//!   in-process on one thread through `FleetConfig::run_chunk_with`.
//!   Almost all the work is the event engine and device components.
//! * `fleet-net` — the real `fleet` binary, two worker processes, harsh
//!   faults, the epidemic scenario: every layer `fleet-clean` skips.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use iw_sim::record::{
    decode_aggregate, decode_stream_frame, encode_aggregate, encode_result, read_frame,
    write_frame, StreamFrame,
};
use iw_sim::{
    fleet_snapshot, DigestAccum, FaultProfile, FleetAggregate, FleetConfig, FleetReport, Scenario,
};

use crate::layers::{check_attribution, layer_self_s, trace_accounting, trace_lines, Layers};
use crate::stats::{median, peak_rss_mib, tail};
use crate::trace::{Span, Tracer};
use crate::{
    line, max_of, min_of, secs, write_spans, Checks, Ctx, EndToEnd, Paired, Run, Setups, Size,
};

/// Devices per `run_chunk_with` call in the timed loop: small enough
/// that the loop stops close to the deadline.
const CHUNK: usize = 32;

/// Worker processes of the timed `fleet-net` jobs. One: with two
/// concurrent workers on this 2-vCPU host, ten runs of the same code
/// read 197–326 device-days/s, a spread no estimator inside a run
/// removed. The traced run still times the 2-worker topology.
const TIMED_WORKERS: usize = 1;

/// Shards of the traced `fleet-net` jobs and of the in-process replay.
const WORKERS: usize = 2;

fn clean_devices(size: Size) -> usize {
    match size {
        // Small enough that a run visits every chunk about five times
        // (best-of-N needs repeats), large enough that the ≥ 2500 device
        // samples of a run leave ≥ 10 beyond the p99.
        Size::Full => 512,
        Size::Tiny => 24,
    }
}

fn net_devices(size: Size) -> usize {
    match size {
        // A job of about half a second, so a run holds some forty of them
        // and its fastest job catches the host's fast moments.
        Size::Full => 64,
        Size::Tiny => 16,
    }
}

/// The in-process reference aggregate of devices `0..devices`: the
/// product's threaded shard runner on 2 threads, a different code path
/// from the serial fold being checked.
fn reference_prefix(cfg: &FleetConfig, devices: usize) -> FleetAggregate {
    let mut rc = cfg.clone();
    rc.devices = devices;
    rc.threads = 2;
    rc.run_shard(0, 1)
}

// ---------------------------------------------------------------------
// fleet-clean
// ---------------------------------------------------------------------

/// One timed sweep over the fleet, `CHUNK` devices per call, wrapping
/// at the fleet size, until `stop` says so. `between` runs between
/// chunks.
struct CleanSweep {
    /// Host seconds per device: from the end of the previous callback to
    /// this device's callback, i.e. `run_device` plus the previous fold.
    device_s: Vec<f64>,
    /// Per chunk position: the simulated days it covers, and every
    /// visit's wall time paired with the speed probe just before it.
    chunk_days: Vec<f64>,
    visits: Paired,
    passes: usize,
    /// Simulated days over every device run, all passes.
    days: f64,
    wall_s: f64,
    /// Aggregate of the first pass (devices `0..covered`).
    first: FleetAggregate,
    covered: usize,
    /// Per-device digests of the first pass.
    digests: Vec<u64>,
    /// Devices in later passes whose digest differed from the first.
    repeat_mismatch: u64,
}

impl CleanSweep {
    /// Device-days per second at the host's best speed over the run.
    fn paired_days_per_s(&self) -> f64 {
        self.chunk_days.iter().sum::<f64>() / self.visits.cost_s()
    }
}

/// The device whose run is the speed probe before every `fleet-clean`
/// chunk.
const PROBE_DEVICE: usize = 0;

/// When a sweep ends.
#[derive(Clone, Copy)]
enum Stop {
    /// At the first chunk boundary after this many seconds.
    After(f64),
    /// After this many full passes.
    Passes(usize),
}

fn clean_sweep(
    cfg: &FleetConfig,
    stop: Stop,
    probe: bool,
    between: &mut dyn FnMut(),
) -> CleanSweep {
    let n = cfg.devices;
    let mut s = CleanSweep {
        device_s: Vec::new(),
        chunk_days: Vec::new(),
        visits: Paired::default(),
        passes: 0,
        days: 0.0,
        wall_s: 0.0,
        first: FleetAggregate::new(cfg),
        covered: 0,
        digests: Vec::with_capacity(n),
        repeat_mismatch: 0,
    };
    let start = Instant::now();
    let mut lo = 0;
    loop {
        let hi = (lo + CHUNK).min(n);
        let first_pass = s.digests.len() < n;
        let mut days = 0.0;
        let probe_s = if probe {
            let t = Instant::now();
            std::hint::black_box(cfg.run_device(PROBE_DEVICE));
            secs(t)
        } else {
            f64::NAN
        };
        let t = Instant::now();
        let mut last = t;
        let agg = cfg.run_chunk_with(lo..hi, |r| {
            s.device_s.push(secs(last));
            days += r.days;
            let d = r.digest();
            if first_pass {
                s.digests.push(d);
            } else if s.digests[r.device] != d {
                s.repeat_mismatch += 1;
            }
            last = Instant::now();
        });
        let chunk_s = secs(t);
        s.days += days;
        let pos = lo / CHUNK;
        if first_pass {
            s.first.merge(agg);
            s.covered = hi;
            s.chunk_days.push(days);
        }
        s.visits.visit(pos, chunk_s, probe_s);
        if hi == n {
            s.passes += 1;
        }
        lo = if hi == n { 0 } else { hi };
        let done = match stop {
            Stop::After(seconds) => secs(start) >= seconds,
            Stop::Passes(passes) => s.passes == passes,
        };
        if done {
            break;
        }
        between();
    }
    s.wall_s = secs(start);
    s
}

pub fn clean(ctx: &Ctx) -> Run {
    let n = clean_devices(ctx.size);
    let config = || iw_bench::d3_fleet_config(n, 1, ctx.seed, FaultProfile::Clean);
    let (mut setups, cfg) = Setups::first(config);
    if ctx.trace {
        return clean_traced(ctx, &cfg);
    }
    let sweep = clean_sweep(&cfg, Stop::After(ctx.seconds), true, &mut || {
        setups.sample(config)
    });
    let mut checks = Checks {
        attempted: sweep.device_s.len() as u64,
        ..Checks::default()
    };
    let reference = reference_prefix(&cfg, sweep.covered);
    checks.expect(reference == sweep.first, sweep.covered as u64, || {
        format!(
            "fleet aggregate of devices 0..{} differs from the 2-thread reference \
             (digest {:016x} vs {:016x})",
            sweep.covered,
            sweep.first.digest(),
            reference.digest()
        )
    });
    checks.expect(sweep.repeat_mismatch == 0, sweep.repeat_mismatch, || {
        format!(
            "{} re-simulated devices changed digest",
            sweep.repeat_mismatch
        )
    });

    let (setup_s, setup_n) = setups.best();
    let device_ms: Vec<f64> = sweep.device_s.iter().map(|s| s * 1e3).collect();
    let e2e = EndToEnd {
        setup_s,
        work_per_s: sweep.paired_days_per_s(),
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
    };
    let mut lines = vec![
        format!(
            "  {n} devices per pass, {} simulated ({} full passes) in {:.2} s, digest {:016x} over 0..{}",
            device_ms.len(),
            sweep.passes,
            sweep.wall_s,
            sweep.first.digest(),
            sweep.covered
        ),
        line("setup_s", setup_s, "s", &format!("best of {setup_n}")),
        line(
            "device_days_per_s",
            e2e.work_per_s,
            "1/s",
            &format!("= work_per_s, probe-paired cost of each {CHUNK}-device chunk"),
        ),
        line(
            "device_days_per_s_mean",
            sweep.days / sweep.wall_s,
            "1/s",
            "all devices / wall",
        ),
        line("device_ms_p50", median(&device_ms), "ms", &format!("n={}", device_ms.len())),
    ];
    lines.push(match tail(&device_ms, 10) {
        Some(t) => line(
            &format!("device_ms_p{}", t.pct),
            t.value,
            "ms",
            &format!("{} samples beyond, n={}", t.beyond, t.n),
        ),
        None => format!(
            "  device_ms tail: fewer than 20 samples (n={})",
            device_ms.len()
        ),
    });
    lines.push(line(
        "peak_rss_mib",
        e2e.peak_rss_mib,
        "MiB",
        "this process",
    ));
    Run {
        checks,
        e2e: Some(e2e),
        layers: None,
        lines,
    }
}

/// Totals the traced replay keeps per device.
#[derive(Default)]
struct DeviceTotals {
    devices: u64,
    days: f64,
    events: u64,
    queue_high_water_max: u64,
}

impl DeviceTotals {
    fn add(&mut self, r: &iw_sim::DeviceResult) {
        self.devices += 1;
        self.days += r.days;
        self.events += r.events;
        self.queue_high_water_max = self.queue_high_water_max.max(r.queue_high_water);
    }
}

/// Fills the layer metrics every fleet trace shares: engine, faults,
/// fold/merge and the trace accounting.
fn fleet_layers(
    layers: &mut Layers,
    spans: &[Span],
    totals: &DeviceTotals,
    report_faults: (&iw_sim::FaultCounters, &iw_sim::ReliabilityCounters),
    (traced_s, untraced_s): (f64, f64),
) {
    let by_name = layer_self_s(spans);
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let run_device_s = self_s("sim.run_device");
    layers.set("sim.run_device_s", run_device_s);
    layers.set(
        "sim.ns_per_event",
        run_device_s * 1e9 / totals.events.max(1) as f64,
    );
    layers.set(
        "sim.events_per_device_day",
        totals.events as f64 / totals.days.max(1e-9),
    );
    layers.set(
        "sim.queue_high_water_max",
        totals.queue_high_water_max as f64,
    );
    let (faults, rel) = report_faults;
    layers.set("fault.episodes", faults.total() as f64);
    layers.set("fault.gated_windows", rel.degraded_windows as f64);
    layers.set("fault.brownouts", rel.brownouts as f64);
    layers.set("fault.ble_retries", rel.sync_retried as f64);
    layers.set("fault.ble_dropped", rel.sync_dropped as f64);
    for (metric, span) in [
        ("fleet.fold_s", "fleet.fold"),
        ("fleet.merge_s", "fleet.merge"),
        ("kernels.budget_s", "kernels.budget"),
        ("bench.config_s", "bench.config"),
        ("record.encode_s", "record.encode"),
        ("record.decode_s", "record.decode"),
        ("scenario.compile_s", "scenario.compile"),
        ("scenario.epidemic_fold_s", "scenario.epidemic_fold"),
        ("metrics.snapshot_s", "metrics.snapshot"),
    ] {
        layers.set(metric, self_s(span));
    }
    trace_accounting(layers, spans, traced_s, untraced_s);
}

/// Times the X2 detection budget on its own, as a second root span after
/// the traced run: `bench.config` already holds the product's own budget
/// call, so the traced root stays the product's work and the ISS share
/// of set-up is `kernels.budget_s / bench.config_s`.
fn budget_outside_root(tracer: &mut Tracer) {
    tracer.span("kernels.budget", 0, |_| iw_bench::x2_detection_budget());
}

/// Traced `fleet-clean`: one untraced pass through `run_chunk_with`
/// (per-device host times), then the same devices replayed with a span
/// around `run_device` and `FleetAggregate::fold` — `run_chunk_with`'s
/// loop, unrolled so the two layers are timed apart.
fn clean_traced(ctx: &Ctx, cfg: &FleetConfig) -> Run {
    let n = cfg.devices;
    // Two untraced passes: ≥ 1000 device samples for the p99.
    let untraced = clean_sweep(cfg, Stop::Passes(2), false, &mut || {});

    let mut tracer = Tracer::new(true);
    let mut totals = DeviceTotals::default();
    let seed = ctx.seed;
    let agg = tracer.span("run.traced", 0, |t| {
        let cfg = t.span("bench.config", 0, |_| {
            iw_bench::d3_fleet_config(n, 1, seed, FaultProfile::Clean)
        });
        let mut agg = FleetAggregate::new(&cfg);
        t.span("run.devices", 0, |t| {
            for i in 0..n {
                let r = t.span("sim.run_device", i as u64, |_| cfg.run_device(i));
                totals.add(&r);
                t.span("fleet.fold", i as u64, |_| agg.fold(r));
            }
        });
        agg
    });
    budget_outside_root(&mut tracer);

    let mut checks = Checks {
        attempted: n as u64,
        ..Checks::default()
    };
    checks.expect(agg == untraced.first, n as u64, || {
        "traced replay aggregate differs from run_chunk_with".into()
    });
    let reference = reference_prefix(cfg, n);
    checks.expect(reference == untraced.first, n as u64, || {
        "run_chunk_with aggregate differs from the 2-thread reference".into()
    });

    let mut layers = Layers::new();
    let spans = tracer.spans();
    // Overhead compares like with like: the traced device loop against
    // one untraced pass over the same devices.
    let loop_s = spans
        .iter()
        .find(|s| s.name == "run.devices")
        .map_or(0.0, |s| s.duration_s());
    fleet_layers(
        &mut layers,
        spans,
        &totals,
        (&agg.faults, &agg.reliability),
        (loop_s, untraced.wall_s / 2.0),
    );
    let device_ms: Vec<f64> = untraced.device_s.iter().map(|s| s * 1e3).collect();
    layers.set("sim.device_ms_p50", median(&device_ms));
    if let Some(t) = tail(&device_ms, 10).filter(|t| t.pct >= 99.0) {
        layers.set("sim.device_ms_p99", t.value);
    }
    layers.set("sim.device_samples", device_ms.len() as f64);
    check_attribution(&mut checks, &layers);

    let mut lines = trace_lines(&layers);
    let root_s = spans[0].duration_s();
    lines.push(format!(
        "  shares of traced wall {root_s:.3} s: run_device {:.4}, fold {:.6}; \
         ISS share of set-up (kernels.budget_s / bench.config_s) {:.3}",
        layers.get("sim.run_device_s") / root_s,
        layers.get("fleet.fold_s") / root_s,
        layers.get("kernels.budget_s") / layers.get("bench.config_s"),
    ));
    write_spans(ctx, "fleet-clean", &tracer, &mut lines);
    Run {
        checks,
        e2e: None,
        layers: Some(layers),
        lines,
    }
}

// ---------------------------------------------------------------------
// fleet-net
// ---------------------------------------------------------------------

/// The product's `fleet-net` set-up: the D3 harsh-fault fleet joined by
/// the compiled epidemic scenario (what `d4_fleet_config` builds, in
/// two steps so the scenario compile can be timed on its own).
fn net_config(n: usize, seed: u64) -> FleetConfig {
    let scenario = Scenario::epidemic(n, seed).compile();
    iw_bench::d3_fleet_config(n, 1, seed, FaultProfile::Harsh).with_scenario(Arc::new(scenario))
}

/// What one run of the real `fleet` binary reported.
#[derive(Debug)]
struct Job {
    wall_s: f64,
    ok: bool,
    digest: Option<u64>,
    coord_wall_s: f64,
    records: Vec<u64>,
    worker_wall_s: Vec<f64>,
    worker_rss_mib: Vec<f64>,
    stderr_tail: String,
}

/// A per-shard value from the Prometheus exposition, e.g.
/// `fleet_worker_records{shard="1"} 32`.
fn prom_per_shard(prom: &str, name: &str, shards: usize) -> Vec<f64> {
    (0..shards)
        .map(|s| {
            let key = format!("{name}{{shard=\"{s}\"}} ");
            prom.lines()
                .find_map(|l| l.strip_prefix(&key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(f64::NAN)
        })
        .collect()
}

fn run_job(bin: &Path, ctx: &Ctx, n: usize, workers: usize) -> Result<Job, String> {
    let metrics = ctx.out_dir.join("fleet-net-metrics.prom");
    let _ = std::fs::remove_file(&metrics);
    let t = Instant::now();
    let out = Command::new(bin)
        .args(["--devices", &n.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--workers", &workers.to_string()])
        .args([
            "--faults",
            "harsh",
            "--scenario",
            "epidemic",
            "--heartbeat-ms",
            "0",
        ])
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let wall_s = secs(t);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("digest: "))
        .and_then(|d| u64::from_str_radix(d.trim(), 16).ok());
    let prom = std::fs::read_to_string(&metrics).unwrap_or_default();
    let coord_wall_s = prom
        .lines()
        .find_map(|l| l.strip_prefix("fleet_wall_seconds "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN);
    let stderr = String::from_utf8_lossy(&out.stderr);
    Ok(Job {
        wall_s,
        ok: out.status.success(),
        digest,
        coord_wall_s,
        records: prom_per_shard(&prom, "fleet_worker_records", workers)
            .into_iter()
            .map(|v| if v.is_finite() { v as u64 } else { u64::MAX })
            .collect(),
        worker_wall_s: prom_per_shard(&prom, "fleet_worker_wall_seconds", workers),
        worker_rss_mib: prom_per_shard(&prom, "fleet_worker_peak_rss_bytes", workers)
            .into_iter()
            .map(|b| b / (1024.0 * 1024.0))
            .collect(),
        stderr_tail: stderr.lines().rev().take(3).collect::<Vec<_>>().join(" | "),
    })
}

/// The largest worker peak RSS over all jobs, MiB.
fn peak_worker_rss_mib(jobs: &[Job]) -> f64 {
    max_of(
        &jobs
            .iter()
            .flat_map(|j| j.worker_rss_mib.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// Checks one job against the reference digest and the shard ranges;
/// every shard is one attempted unit.
fn check_job(checks: &mut Checks, job: &Job, cfg: &FleetConfig, reference: u64, idx: usize) {
    let workers = job.records.len();
    checks.attempted += workers as u64;
    if !job.ok || job.digest != Some(reference) {
        checks.expect(false, workers as u64, || {
            format!(
                "job {idx}: exit ok={} digest {:?} vs reference {reference:016x} [{}]",
                job.ok,
                job.digest.map(|d| format!("{d:016x}")),
                job.stderr_tail
            )
        });
        return;
    }
    for (shard, &records) in job.records.iter().enumerate() {
        let want = cfg.shard_range(shard, workers).len() as u64;
        checks.expect(records == want, 1, || {
            format!("job {idx} shard {shard}: {records} records, want {want}")
        });
    }
}

pub fn net(ctx: &Ctx) -> Result<Run, String> {
    let bin = ctx
        .fleet_bin
        .as_deref()
        .ok_or("fleet-net needs --fleet-bin (the built `fleet` binary)")?;
    let n = net_devices(ctx.size);
    let config = || net_config(n, ctx.seed);
    let (mut setups, cfg) = Setups::first(config);
    if ctx.trace {
        return net_traced(ctx, bin, &cfg);
    }
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || secs(start) < ctx.seconds {
        setups.sample(config);
        jobs.push(run_job(bin, ctx, n, TIMED_WORKERS)?);
    }
    let measured_s = secs(start);

    let mut rc = cfg.clone();
    rc.threads = 2;
    let reference = rc.run();
    let mut checks = Checks::default();
    for (idx, job) in jobs.iter().enumerate() {
        check_job(&mut checks, job, &cfg, reference.digest, idx);
    }
    let device_days = reference.simulated_s / 86_400.0;
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let (setup_s, setup_n) = setups.best();
    let job_s = min_of(&walls);
    let e2e = EndToEnd {
        setup_s,
        work_per_s: device_days / job_s,
        peak_rss_mib: peak_worker_rss_mib(&jobs),
    };
    let records: u64 = jobs.last().map_or(0, |j| j.records.iter().sum());
    let lines = vec![
        format!(
            "  {} jobs of {n} devices x {TIMED_WORKERS} worker in {measured_s:.2} s, digest {:016x}, \
             {records} records/job",
            jobs.len(),
            reference.digest
        ),
        line(
            "setup_s",
            setup_s,
            "s",
            &format!("config + scenario compile, best of {setup_n}"),
        ),
        line(
            "device_days_per_s",
            e2e.work_per_s,
            "1/s",
            &format!("= work_per_s, fastest of {} jobs", jobs.len()),
        ),
        line(
            "device_days_per_s_mean",
            device_days * jobs.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
            "all jobs",
        ),
        line(
            "job_ms_p50",
            median(&walls) * 1e3,
            "ms",
            &format!("n={}", jobs.len()),
        ),
        line("job_ms_best", job_s * 1e3, "ms", "fastest job"),
        line(
            "peak_rss_mib",
            e2e.peak_rss_mib,
            "MiB",
            "max worker peak RSS",
        ),
    ];
    Ok(Run {
        checks,
        e2e: Some(e2e),
        layers: None,
        lines,
    })
}

/// What the in-process replay of the two shards produced.
struct Replay {
    report: FleetReport,
    totals: DeviceTotals,
    frame_bytes: u64,
    contact_entries: u64,
    problems: Vec<String>,
}

/// The `fleet-net` product path replayed in-process: set-up, then per
/// shard every record goes encode → frame → decode → coordinator
/// re-fold, the worker folds the original, the shard aggregate crosses
/// the codec and is merged, and the merged aggregate is finalised with
/// the epidemic fold and exported. Run with a disabled tracer it is its
/// own untraced twin.
fn replay(n: usize, seed: u64, t: &mut Tracer) -> Replay {
    t.span("run.traced", 0, |t| {
        let base = t.span("bench.config", 0, |_| {
            iw_bench::d3_fleet_config(n, 1, seed, FaultProfile::Harsh)
        });
        let compiled = t.span("scenario.compile", 0, |_| {
            Scenario::epidemic(n, seed).compile()
        });
        let contact_entries = compiled
            .contacts
            .iter()
            .map(|p| p.entries.len() as u64)
            .sum();
        let scenario = Arc::new(compiled);
        let cfg = base.with_scenario(Arc::clone(&scenario));
        let mut totals = DeviceTotals::default();
        let mut frame_bytes = 0u64;
        let mut problems = Vec::new();
        let mut merged = FleetAggregate::new(&cfg);
        for shard in 0..WORKERS {
            t.span("run.shard", shard as u64, |t| {
                let mut worker = FleetAggregate::new(&cfg);
                let mut refold = DigestAccum::new();
                let mut pipe: Vec<u8> = Vec::new();
                for i in cfg.shard_range(shard, WORKERS) {
                    let req = i as u64;
                    let r = t.span("sim.run_device", req, |_| cfg.run_device(i));
                    totals.add(&r);
                    pipe.clear();
                    t.span("record.encode", req, |_| {
                        write_frame(&mut pipe, &encode_result(&r))
                    })
                    .expect("writing to a Vec cannot fail");
                    frame_bytes += pipe.len() as u64;
                    let decoded = t.span("record.decode", req, |_| {
                        read_frame(&mut pipe.as_slice())
                            .ok()
                            .flatten()
                            .and_then(|f| decode_stream_frame(&f).ok())
                    });
                    match decoded {
                        Some(StreamFrame::Result(d)) if d == r => {
                            t.span("fleet.fold", req, |_| refold.fold(d.digest()));
                        }
                        _ => problems.push(format!("device {i}: record did not round-trip")),
                    }
                    t.span("fleet.fold", req, |_| worker.fold(r));
                }
                pipe.clear();
                let req = shard as u64;
                t.span("record.encode", req, |_| {
                    write_frame(&mut pipe, &encode_aggregate(&worker))
                })
                .expect("writing to a Vec cannot fail");
                let shipped = t.span("record.decode", req, |_| {
                    read_frame(&mut pipe.as_slice())
                        .ok()
                        .flatten()
                        .and_then(|f| decode_aggregate(&f).ok())
                });
                match shipped {
                    Some(agg) if agg == worker && agg.digest() == refold.digest() => {
                        t.span("fleet.merge", req, |_| merged.merge(agg));
                    }
                    _ => problems.push(format!("shard {shard}: aggregate did not round-trip")),
                }
            });
        }
        let report = t.span("scenario.epidemic_fold", 0, |_| {
            merged.into_report_with(Some(&scenario))
        });
        let prom = t.span("metrics.snapshot", 0, |_| {
            fleet_snapshot(&report).to_prometheus()
        });
        if !prom.contains(&format!("{:016x}", report.digest)) {
            problems.push("metrics exposition lacks the fleet digest".into());
        }
        Replay {
            report,
            totals,
            frame_bytes,
            contact_entries,
            problems,
        }
    })
}

/// Traced `fleet-net`: the real multi-process job (coordinator and
/// worker figures from its stats), then the in-process replay untraced
/// and traced.
fn net_traced(ctx: &Ctx, bin: &Path, cfg: &FleetConfig) -> Result<Run, String> {
    let n = cfg.devices;
    let mut rc = cfg.clone();
    rc.threads = 2;
    let reference = rc.run();
    let mut checks = Checks::default();

    let job_count = if ctx.size == Size::Full { 3 } else { 1 };
    let mut jobs = Vec::new();
    for idx in 0..job_count {
        let job = run_job(bin, ctx, n, WORKERS)?;
        check_job(&mut checks, &job, cfg, reference.digest, idx);
        jobs.push(job);
    }

    // Untraced and traced replays alternate; the overhead compares the
    // fastest of each, the layers come from the last traced replay.
    let replays = if ctx.size == Size::Full { 3 } else { 1 };
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..replays {
        let t = Instant::now();
        let plain = replay(n, ctx.seed, &mut Tracer::new(false));
        untraced_s = untraced_s.min(secs(t));
        let mut tracer = Tracer::new(true);
        let traced = replay(n, ctx.seed, &mut tracer);
        budget_outside_root(&mut tracer);
        traced_s = traced_s.min(tracer.spans()[0].duration_s());
        for r in [&plain, &traced] {
            checks.attempted += WORKERS as u64;
            checks.expect(r.problems.is_empty(), WORKERS as u64, || {
                r.problems.join("; ")
            });
            checks.expect(r.report.digest == reference.digest, WORKERS as u64, || {
                format!(
                    "replay digest {:016x} vs reference {:016x}",
                    r.report.digest, reference.digest
                )
            });
        }
        last = Some((tracer, traced));
    }
    let (tracer, traced) = last.expect("at least one replay");

    let mut layers = Layers::new();
    let spans = tracer.spans();
    fleet_layers(
        &mut layers,
        spans,
        &traced.totals,
        (&traced.report.faults, &traced.report.reliability),
        (traced_s, untraced_s),
    );
    layers.set("scenario.contact_entries", traced.contact_entries as f64);
    layers.set(
        "record.bytes_per_device",
        traced.frame_bytes as f64 / traced.totals.devices.max(1) as f64,
    );
    let per_job = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    layers.set("worker.wall_s_max", per_job(&|j| max_of(&j.worker_wall_s)));
    layers.set("worker.wall_s_min", per_job(&|j| min_of(&j.worker_wall_s)));
    layers.set(
        "shard.imbalance",
        per_job(&|j| {
            max_of(&j.worker_wall_s) * j.worker_wall_s.len() as f64
                / j.worker_wall_s.iter().sum::<f64>()
        }),
    );
    layers.set(
        "coord.wait_s",
        per_job(&|j| j.coord_wall_s - max_of(&j.worker_wall_s)),
    );
    layers.set("worker.peak_rss_mib", peak_worker_rss_mib(&jobs));
    check_attribution(&mut checks, &layers);

    let mut lines = trace_lines(&layers);
    let root_s = spans[0].duration_s();
    let share = |names: &[&str]| names.iter().map(|m| layers.get(m)).sum::<f64>() / root_s;
    lines.push(format!(
        "  shares of traced replay wall {root_s:.3} s: run_device {:.4}, codec+fold+merge {:.5}, \
         scenario compile {:.5}, epidemic fold {:.6}",
        share(&["sim.run_device_s"]),
        share(&[
            "record.encode_s",
            "record.decode_s",
            "fleet.fold_s",
            "fleet.merge_s"
        ]),
        share(&["scenario.compile_s"]),
        share(&["scenario.epidemic_fold_s"]),
    ));
    // The product's set-up is `d3_fleet_config` (which holds the X2
    // budget) plus the scenario compile.
    let setup_s = layers.get("bench.config_s") + layers.get("scenario.compile_s");
    lines.push(format!(
        "  shares of traced set-up {:.3} ms: scenario compile {:.3}, ISS (kernels.budget_s) {:.3}",
        setup_s * 1e3,
        layers.get("scenario.compile_s") / setup_s,
        layers.get("kernels.budget_s") / setup_s,
    ));
    write_spans(ctx, "fleet-net", &tracer, &mut lines);
    Ok(Run {
        checks,
        e2e: None,
        layers: Some(layers),
        lines,
    })
}
