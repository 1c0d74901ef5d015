//! Command-line driver: `querybench --workload NAME --seed N --seconds S
//! --trace 0|1`. Prints a human-readable report, then one JSON line.

use std::process::ExitCode;
use std::time::Instant;

use gpudb_core::resilience::ResiliencePath;
use gpudb_core::{Gpu, GpuTable};
use gpudb_querybench::engine::{shard_count, Bench, Workload, WIDTH};
use gpudb_querybench::measure::{self, Reference};
use gpudb_querybench::mix;
use gpudb_querybench::stats::{harrell_davis, median, quantile, ratio};
use gpudb_querybench::DEFAULT_SEED;
use gpudb_sim::WorkCounters;

const USAGE: &str = "usage: querybench --workload accumulate|orderstat|sharded|out-of-core \
                     [--seed N] --seconds S [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Make peak RSS a property of the engine rather than of thread timing:
/// one allocator arena, and a fixed mmap threshold so that large buffers
/// go back to the kernel when freed. With glibc's defaults each shard
/// worker thread may get an arena of its own that keeps freed memory, and
/// the threshold adapts to the order of frees, so peak RSS on `sharded`
/// swung by a third between runs of the same seed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts allocator tuning parameters; it is
    // called before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("querybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("querybench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} cpu=\"{}\" rustc=\"{}\" profile={} commit={} seed={}",
        cpu_model(),
        env!("QUERYBENCH_RUSTC"),
        env!("QUERYBENCH_PROFILE"),
        commit(),
        args.seed
    );

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(w, args.seed).map_err(|e| format!("setup failed: {e}"))?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");
    let setup_s = median(&mut setups);

    let mix = mix::build(w.mix(), &bench.host, args.seed);
    // One untimed warm-up query; the reference pass below then runs
    // every query once more before anything is timed.
    let _ = bench.run(&mix[0]);
    let sharded = w == Workload::Sharded;
    // A single device holding the whole table: the sharded answers must
    // equal its answers, and traced runs plan and trace on it when the
    // workload's own devices are out of reach.
    let mut twin =
        (sharded || (args.trace && w == Workload::OutOfCore)).then(|| measure::twin(&bench));
    let reference = measure::reference(&mut bench, &mix, twin.as_mut().filter(|_| sharded));

    println!(
        "workload: {} records={} width={WIDTH} entry={} shards={} queries_in_mix={} client=1 closed-loop",
        w.name(),
        w.records(),
        w.entry_point(),
        if sharded { shard_count() } else { 1 },
        mix.len()
    );
    let mut sel = reference.selectivity.clone();
    println!(
        "digest: {:016x} selectivity: min={:.4} median={:.4} max={:.4}",
        reference.digest,
        quantile(&mut sel, 0.0),
        quantile(&mut sel, 0.5),
        quantile(&mut sel, 1.0)
    );
    for failure in &reference.failures {
        println!("FAIL: {failure}");
    }

    let (metrics, attempted, failed) = if args.trace {
        per_layer(&mut bench, &mix, &reference, twin.as_mut())
    } else {
        end_to_end(&mut bench, &mix, &reference, args.seconds, setup_s)
    };

    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn modeled_ms_per_query(reference: &Reference) -> f64 {
    let total: u64 = reference
        .answers
        .iter()
        .flatten()
        .map(|a| a.modeled_ns)
        .sum();
    total as f64 / 1e6 / reference.answers.len() as f64
}

fn end_to_end(
    bench: &mut Bench,
    mix: &[String],
    reference: &Reference,
    seconds: f64,
    setup_s: f64,
) -> (Vec<Metric>, u64, u64) {
    let cycles = measure::cycles_for(reference, seconds);
    let timed = measure::timed_loop(bench, mix, reference, cycles);
    println!(
        "samples: {} queries timed ({cycles} passes over the mix)",
        timed.latencies_s.len()
    );
    let mut per_query = timed.per_query_ms(mix.len());
    let metrics = vec![
        metric("queries_per_s", timed.queries_per_s(mix.len()), "1/s"),
        metric("query_ms_p50", harrell_davis(&mut per_query, 0.5), "ms"),
        metric("query_ms_p90", harrell_davis(&mut per_query, 0.9), "ms"),
        metric(
            "modeled_ms_per_query",
            modeled_ms_per_query(reference),
            "ms",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let attempted = (mix.len() + timed.latencies_s.len()) as u64;
    (
        metrics,
        attempted,
        reference.failures.len() as u64 + timed.failed,
    )
}

fn per_layer(
    bench: &mut Bench,
    mix: &[String],
    reference: &Reference,
    twin: Option<&mut (Gpu, GpuTable)>,
) -> (Vec<Metric>, u64, u64) {
    let upload_s = measure::upload_s(bench);
    let t = measure::traced_pass(bench, mix, reference, twin);
    let q = mix.len() as f64;
    let lt = &t.totals;
    let answers: Vec<_> = reference.answers.iter().flatten().collect();
    let c = answers
        .iter()
        .fold(WorkCounters::default(), |sum, a| sum.plus(&a.counters));
    let per_q = |v: u64| v as f64 / q;
    let frags = c.fragments_generated as f64;
    let paths: Vec<_> = answers
        .iter()
        .flat_map(|a| a.paths.iter().copied())
        .collect();
    let path_frac = |p| {
        ratio(
            paths.iter().filter(|&&x| x == p).count() as f64,
            paths.len() as f64,
        )
    };
    let sharded = bench.workload == Workload::Sharded;
    let shard = |v: f64| if sharded { v } else { 0.0 };
    let failed = reference.failures.len() as u64 + t.failed;
    // The reference pass, plus three timed passes (untraced, traced,
    // untraced) on a single device or one sharded pass.
    let passes = if sharded { 2 } else { 4 };
    let attempted = (mix.len() * passes) as u64;
    let mut oracle = reference.oracle_s.clone();

    println!(
        "traced: {:.3} ms/query, untraced: {:.3} ms/query",
        t.traced_s * 1e3 / q,
        t.untraced_s * 1e3 / q
    );
    for (label, count) in &lt.pass_counts {
        println!(
            "pass {label}: {count} passes, {:.3} ms/query",
            lt.pass_seconds[label] * 1e3 / q
        );
    }
    let metrics = vec![
        metric("pass.program_ms", lt.program_s * 1e3 / q, "ms"),
        metric(
            "pass.program_mfrag_per_s",
            ratio(lt.program_fragments as f64, lt.program_s) / 1e6,
            "Mfrag/s",
        ),
        metric("pass.fixed_ms", lt.fixed_s * 1e3 / q, "ms"),
        metric(
            "pass.fixed_mfrag_per_s",
            ratio(lt.fixed_fragments as f64, lt.fixed_s) / 1e6,
            "Mfrag/s",
        ),
        metric(
            "pass.fanout_frac",
            ratio(t.passes.1 as f64, t.passes.0 as f64),
            "frac",
        ),
        metric("readback_ms", lt.readback_s * 1e3 / q, "ms"),
        metric("upload_ms", upload_s * 1e3, "ms"),
        metric("op.self_ms", lt.operator_self_s * 1e3 / q, "ms"),
        metric(
            "sim.occlusion_syncs_per_query",
            per_q(c.occlusion_readbacks),
            "count",
        ),
        metric("sim.draws_per_query", per_q(c.draw_calls), "count"),
        metric(
            "sim.fragments_per_query",
            per_q(c.fragments_generated),
            "count",
        ),
        metric(
            "sim.instructions_per_query",
            per_q(c.program_instructions),
            "count",
        ),
        metric(
            "sim.shaded_frac",
            ratio(c.fragments_shaded as f64, frags),
            "frac",
        ),
        metric(
            "sim.early_z_reject_frac",
            ratio(c.fragments_early_rejected as f64, frags),
            "frac",
        ),
        metric(
            "sim.upload_bytes_per_query",
            per_q(c.bytes_uploaded),
            "bytes",
        ),
        metric(
            "sim.readback_bytes_per_query",
            per_q(c.bytes_read_back),
            "bytes",
        ),
        metric("query.parse_us", t.parse_s * 1e6 / q, "us"),
        metric("query.plan_us", t.plan_s * 1e6 / q, "us"),
        metric("stage.selection_ms", lt.selection_s * 1e3 / q, "ms"),
        metric("stage.aggregate_ms", lt.aggregate_s * 1e3 / q, "ms"),
        metric("op.filter_ms", lt.filter_s * 1e3 / q, "ms"),
        metric("op.agg_sum_ms", lt.agg_sum_s * 1e3 / q, "ms"),
        metric("op.agg_order_ms", lt.agg_order_s * 1e3 / q, "ms"),
        metric(
            "shard.overhead_ms",
            shard(t.shard_overhead_s * 1e3 / q),
            "ms",
        ),
        metric(
            "shard.skew",
            shard(answers.iter().map(|a| a.skew).sum::<f64>() / q),
            "ratio",
        ),
        metric(
            "shard.merge_us",
            shard(answers.iter().map(|a| a.merge_ns as f64).sum::<f64>() / q / 1e3),
            "us",
        ),
        metric(
            "resilience.gpu_frac",
            path_frac(ResiliencePath::Gpu),
            "frac",
        ),
        metric(
            "resilience.out_of_core_frac",
            path_frac(ResiliencePath::OutOfCore),
            "frac",
        ),
        metric(
            "resilience.cpu_frac",
            path_frac(ResiliencePath::Cpu),
            "frac",
        ),
        metric(
            "resilience.attempts_per_query",
            ratio(
                answers.iter().map(|a| f64::from(a.attempts)).sum(),
                paths.len() as f64,
            ),
            "count",
        ),
        metric("oracle.check_ms", median(&mut oracle) * 1e3, "ms"),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(t.untraced_s, t.traced_s),
            "frac",
        ),
        metric("error_rate", ratio(failed as f64, attempted as f64), "frac"),
    ];
    (metrics, attempted, failed)
}
