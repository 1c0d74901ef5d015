//! The measurement procedures: a verified reference pass, the timed
//! closed loop, and the traced per-layer pass.

use std::time::Instant;

use gpudb_core::parallel::execute_sharded;
use gpudb_core::query::{self, execute_with_options, plan_selection, ExecuteOptions};
use gpudb_core::{cpu_oracle, Gpu, GpuTable};
use gpudb_obs::TraceLevel;
use gpudb_sim::span::SpanKind;

use crate::engine::{upload_device, Answer, Bench, Engine};
use crate::spans::{LayerTotals, WallSink, FANOUT_FRAGMENTS};
use crate::stats::median;

/// The first, untimed execution of every mix query, checked against the
/// CPU oracle (and, when sharded, against a single device).
pub struct Reference {
    /// Per mix query: the answer, or the error it returned.
    pub answers: Vec<Result<Answer, String>>,
    /// Host seconds per query, as timed by the entry point's caller.
    pub latencies_s: Vec<f64>,
    /// Host seconds per oracle check.
    pub oracle_s: Vec<f64>,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// FNV-1a digest over every query's text and answer.
    pub digest: u64,
    /// Selectivity of each query's filter, from the oracle.
    pub selectivity: Vec<f64>,
}

/// FNV-1a, folded over byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Execute every mix query once, untimed, and check each answer.
/// `twin` is a single device holding the whole table; the sharded
/// workload's answers must equal its answers exactly.
pub fn reference(
    bench: &mut Bench,
    mix: &[String],
    mut twin: Option<&mut (Gpu, GpuTable)>,
) -> Reference {
    let mut out = Reference {
        answers: Vec::with_capacity(mix.len()),
        latencies_s: Vec::with_capacity(mix.len()),
        oracle_s: Vec::with_capacity(mix.len()),
        failures: Vec::new(),
        digest: 0,
        selectivity: Vec::with_capacity(mix.len()),
    };
    let mut digest = Fnv::new();
    for sql in mix {
        let (answer, elapsed) = bench.run(sql);
        out.latencies_s.push(elapsed.as_secs_f64());
        let start = Instant::now();
        let oracle =
            query::parse(sql).and_then(|stmt| cpu_oracle::execute(&bench.host, &stmt.query));
        out.oracle_s.push(start.elapsed().as_secs_f64());
        digest.write(sql.as_bytes());
        match &answer {
            Ok(a) => digest.write(format!("{}{:?}", a.matched, a.rows).as_bytes()),
            Err(e) => digest.write(e.to_string().as_bytes()),
        }
        match (&answer, &oracle) {
            (Ok(a), Ok(o)) if o.agrees_with(a.matched, &a.rows) => {}
            (Ok(_), Ok(_)) => out
                .failures
                .push(format!("disagrees with cpu_oracle: {sql}")),
            (Err(e), _) => out.failures.push(format!("error `{e}`: {sql}")),
            (Ok(_), Err(e)) => out.failures.push(format!("oracle error `{e}`: {sql}")),
        }
        out.selectivity
            .push(oracle.as_ref().map_or(0.0, |o| o.selectivity));
        if let (Some((gpu, table)), Ok(a)) = (twin.as_deref_mut(), &answer) {
            let single = query::parse(sql).and_then(|stmt| {
                execute_with_options(gpu, table, &stmt.query, ExecuteOptions::default())
            });
            match single {
                Ok(s) if s.matched == a.matched && s.rows == a.rows => {}
                _ => out
                    .failures
                    .push(format!("differs from single device: {sql}")),
            }
        }
        out.answers.push(answer.map_err(|e| e.to_string()));
    }
    out.digest = digest.finish();
    out
}

/// The timed closed loop: one client, next query sent when the last
/// returns.
#[derive(Default)]
pub struct Timed {
    /// Host seconds per query, SQL text to result.
    pub latencies_s: Vec<f64>,
    /// Queries that errored or did not repeat their reference answer,
    /// cost and work counts exactly.
    pub failed: u64,
}

impl Timed {
    /// Queries completed per host second spent inside queries, over the
    /// median pass of `mix_len` queries: a burst of load from elsewhere
    /// on the host that slows a minority of passes does not move it.
    pub fn queries_per_s(&self, mix_len: usize) -> f64 {
        let mut passes: Vec<f64> = self
            .latencies_s
            .chunks(mix_len)
            .map(|pass| pass.iter().sum())
            .collect();
        mix_len as f64 / median(&mut passes)
    }

    /// Each mix query's median host milliseconds over the passes.
    pub fn per_query_ms(&self, mix_len: usize) -> Vec<f64> {
        (0..mix_len)
            .map(|q| {
                let mut ms: Vec<f64> = self
                    .latencies_s
                    .iter()
                    .skip(q)
                    .step_by(mix_len)
                    .map(|s| s * 1e3)
                    .collect();
                median(&mut ms)
            })
            .collect()
    }
}

/// Whole passes over the mix that fill about `seconds`, judged by the
/// reference pass's query time; at least one. Whole passes keep every
/// run's sample the same blend of queries.
pub fn cycles_for(reference: &Reference, seconds: f64) -> usize {
    let cycle_s: f64 = reference.latencies_s.iter().sum();
    ((seconds / cycle_s).round() as usize).max(1)
}

/// Run the mix in order `cycles` times. Every answer must repeat its
/// reference answer, modeled cost and work counts exactly.
pub fn timed_loop(
    bench: &mut Bench,
    mix: &[String],
    reference: &Reference,
    cycles: usize,
) -> Timed {
    let mut timed = Timed::default();
    for _ in 0..cycles {
        for (q, sql) in mix.iter().enumerate() {
            let (answer, elapsed) = bench.run(sql);
            timed.latencies_s.push(elapsed.as_secs_f64());
            let repeated = matches!((&answer, &reference.answers[q]), (Ok(a), Ok(r)) if a == r);
            timed.failed += u64::from(!repeated);
        }
    }
    timed
}

/// Per-layer figures from a traced pass over the mix.
#[derive(Default)]
pub struct Traced {
    /// Wall-clock layer totals over the traced pass.
    pub totals: LayerTotals,
    /// Host seconds of the traced pass's queries, and of the same
    /// queries untraced.
    pub traced_s: f64,
    /// See `traced_s`.
    pub untraced_s: f64,
    /// Host seconds in `query::parse`, summed over the pass.
    pub parse_s: f64,
    /// Host seconds in `plan_selection`, summed over the pass.
    pub plan_s: f64,
    /// Sharded minus single-device seconds, summed over the pass.
    pub shard_overhead_s: f64,
    /// Passes, and passes of at least [`FANOUT_FRAGMENTS`] fragments,
    /// on the devices that answered.
    pub passes: (u64, u64),
    /// Queries that did not repeat their reference answer.
    pub failed: u64,
}

/// Host seconds per query of one pass over the mix on a single device.
fn single_device_pass(gpu: &mut Gpu, table: &GpuTable, mix: &[String]) -> Vec<f64> {
    mix.iter()
        .map(|sql| {
            let start = Instant::now();
            let _ = query::parse(sql).and_then(|stmt| {
                execute_with_options(gpu, table, &stmt.query, ExecuteOptions::default())
            });
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn recover(gpu: &mut Gpu) -> LayerTotals {
    gpu.take_span_sink()
        .and_then(WallSink::recover)
        .unwrap_or_default()
}

/// Per-layer figures from untraced and traced passes over the mix.
///
/// The wall-clock sink goes on the device that answers queries, and an
/// untraced pass runs before and after the traced one so that drift
/// cancels out of the tracing overhead. Sharded execution creates its
/// devices inside `execute_sharded`, so there the sink goes on `twin`
/// (a single device holding the whole table), the overhead of sharding
/// is the sharded time minus the twin's untraced time for the same
/// query, and fan-out is counted from a modeled-clock trace of the
/// shard devices.
pub fn traced_pass(
    bench: &mut Bench,
    mix: &[String],
    reference: &Reference,
    twin: Option<&mut (Gpu, GpuTable)>,
) -> Traced {
    let mut t = Traced::default();
    for sql in mix {
        let start = Instant::now();
        let stmt = query::parse(sql);
        t.parse_s += start.elapsed().as_secs_f64();
        let table = match (&bench.engine, &twin) {
            (Engine::Device { table, .. }, _) => table,
            (_, Some(twin)) => &twin.1,
            _ => panic!("workloads without a device table keep a single-device twin"),
        };
        if let Ok(stmt) = &stmt {
            let start = Instant::now();
            let _ = plan_selection(table, stmt.query.filter.as_ref());
            t.plan_s += start.elapsed().as_secs_f64();
        }
    }

    if let Engine::Sharded { opts } = &bench.engine {
        let mut traced_opts = opts.clone();
        traced_opts.options.trace = Some(TraceLevel::Passes);
        let sharded = timed_loop(bench, mix, reference, 1);
        t.failed = sharded.failed;
        let (gpu, table) = twin.expect("sharded runs keep a single-device twin");
        let before = single_device_pass(gpu, table, mix);
        gpu.attach_span_sink(Box::new(WallSink::new()));
        t.traced_s = single_device_pass(gpu, table, mix).iter().sum();
        t.totals = recover(gpu);
        let after = single_device_pass(gpu, table, mix);
        for q in 0..mix.len() {
            let single = (before[q] + after[q]) / 2.0;
            t.untraced_s += single;
            t.shard_overhead_s += sharded.latencies_s[q] - single;
        }
        for sql in mix {
            let out = query::parse(sql)
                .and_then(|stmt| execute_sharded(&bench.host, &stmt.query, &traced_opts));
            let Some(tree) = out.ok().and_then(|o| o.output.trace) else {
                continue;
            };
            for span in tree.spans_of_kind(SpanKind::Pass) {
                if span.name.starts_with("pass:") {
                    t.passes.0 += 1;
                    t.passes.1 += u64::from(span.counters.fragments_generated >= FANOUT_FRAGMENTS);
                }
            }
        }
    } else {
        let before = timed_loop(bench, mix, reference, 1);
        let gpu = bench
            .device()
            .expect("single-device workloads own a device");
        gpu.attach_span_sink(Box::new(WallSink::new()));
        let traced = timed_loop(bench, mix, reference, 1);
        t.totals = recover(
            bench
                .device()
                .expect("single-device workloads own a device"),
        );
        let after = timed_loop(bench, mix, reference, 1);
        t.traced_s = traced.latencies_s.iter().sum();
        t.untraced_s =
            (before.latencies_s.iter().sum::<f64>() + after.latencies_s.iter().sum::<f64>()) / 2.0;
        t.failed = before.failed + traced.failed + after.failed;
        t.passes = (t.totals.passes, t.totals.fanout_passes);
    }
    t
}

/// Host seconds of one full-table upload onto a fresh device (median of
/// three): the work every query repeats when sharded or out of core.
pub fn upload_s(bench: &Bench) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut gpu = GpuTable::device_for(bench.host.record_count(), crate::engine::WIDTH);
            let start = Instant::now();
            let table = bench.host.upload(&mut gpu);
            let elapsed = start.elapsed().as_secs_f64();
            if let Ok(table) = table {
                let _ = table.free(&mut gpu);
            }
            elapsed
        })
        .collect();
    median(&mut samples)
}

/// Build the single-device twin of `bench`'s table.
pub fn twin(bench: &Bench) -> (Gpu, GpuTable) {
    upload_device(&bench.host).expect("the full table fits a device sized for it")
}
