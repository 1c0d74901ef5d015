//! Resilient query execution: retry, degradation, and CPU fallback.
//!
//! The paper's routines assume a device that answers every occlusion
//! query and returns every readback intact. Under the fault model of
//! `gpudb-sim` (see `docs/resilience.md`) that assumption breaks in
//! typed, classified ways — [`gpudb_sim::FaultClass`] — and this module
//! turns each class into a recovery ladder instead of a failed query:
//!
//! - **Transient** (lost occlusion query, corrupted readback): retry the
//!   whole query up to [`RetryPolicy::max_attempts`] times, separated by
//!   exponential backoff charged to the *modeled* clock
//!   ([`Gpu::charge_backoff`]) so recovery cost is deterministic and
//!   visible in metrics. Exhausted retries wrap the last error in
//!   [`EngineError::RetriesExhausted`].
//! - **Resource** (video-memory allocation failure): degrade to chunked
//!   out-of-core execution — the table is re-uploaded in
//!   [`RetryPolicy::oom_chunks`] slices and decomposable aggregates
//!   (COUNT/SUM/AVG/MIN/MAX) are combined across chunks. Holistic
//!   aggregates (median, k-th, percentile) are not chunk-decomposable
//!   and skip to the CPU rung.
//! - **Device** (reset, persistent faults): answer on the CPU via
//!   [`crate::cpu_oracle`], whose operators route through `gpudb-cpu`'s
//!   optimized baselines and agree with the GPU path result-for-result
//!   and error-for-error.
//! - **Logic** (bad query, invalid k, unknown column): never retried —
//!   the error is the answer, and it is identical on every rung.
//!
//! Every recovery step emits a `resilience/*` [`MetricsRecord`] into the
//! output so EXPLAIN ANALYZE and the span timeline show what the engine
//! actually did. With no injected faults, `execute_resilient` takes the
//! plain GPU path and produces byte-identical records to
//! [`executor::execute_with_options`] — the perf harness's determinism
//! gate stays intact.

use crate::cpu_oracle::{self, HostTable};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{self, MetricsRecord, PhaseNanos};
use crate::query::ast::{Aggregate, Query};
use crate::query::executor::{self, AggValue, ExecuteOptions, QueryOutput};
use crate::timing::OpTiming;
use gpudb_sim::{FaultClass, Gpu, WorkCounters};

/// Knobs for the recovery ladder.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum GPU attempts for transient faults (including the first);
    /// clamped to at least 1.
    pub max_attempts: u32,
    /// Modeled backoff before the first retry, in seconds.
    pub base_backoff_s: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Number of slices for the out-of-core degradation rung.
    pub oom_chunks: usize,
    /// Whether Device-class faults and exhausted retries may fall back
    /// to the CPU oracle. When `false` the typed error is returned
    /// instead — useful for tests and for callers that must not accept
    /// CPU latency silently.
    pub cpu_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 1e-3,
            multiplier: 2.0,
            oom_chunks: 4,
            cpu_fallback: true,
        }
    }
}

/// Which rung of the ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResiliencePath {
    /// The plain device path (possibly after retries).
    Gpu,
    /// Chunked out-of-core execution after an allocation failure.
    OutOfCore,
    /// The CPU oracle.
    Cpu,
}

/// What the ladder did to produce the answer.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Rung that produced the result.
    pub path: ResiliencePath,
    /// GPU attempts made (1 when the first try succeeded).
    pub attempts: u32,
    /// Retries after transient faults.
    pub retries: u32,
    /// Total modeled backoff charged, in seconds.
    pub backoff_s: f64,
    /// Human-readable ladder steps, in order.
    pub degradations: Vec<String>,
}

/// A query answer plus the story of how it was obtained.
#[derive(Debug, Clone)]
pub struct ResilientOutput {
    /// The query result (GPU-parity regardless of rung).
    pub output: QueryOutput,
    /// Recovery ledger.
    pub report: ResilienceReport,
}

/// Execute `query` against `host`'s data, riding the recovery ladder as
/// faults demand. The device table is (re)uploaded from the host copy on
/// every attempt, so a device reset between attempts is survivable.
pub fn execute_resilient(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
    policy: &RetryPolicy,
) -> EngineResult<ResilientOutput> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut retries = 0u32;
    let mut backoff_s = 0.0f64;
    let mut degradations = Vec::new();
    let mut resilience_metrics: Vec<MetricsRecord> = Vec::new();

    loop {
        attempts += 1;
        let error = match gpu_attempt(gpu, host, query, options) {
            Ok(mut output) => {
                output.metrics.extend(resilience_metrics);
                return Ok(ResilientOutput {
                    output,
                    report: ResilienceReport {
                        path: ResiliencePath::Gpu,
                        attempts,
                        retries,
                        backoff_s,
                        degradations,
                    },
                });
            }
            Err(e) => e,
        };

        match error.fault_class() {
            FaultClass::Logic => return Err(error),
            FaultClass::Transient if attempts < max_attempts => {
                retries += 1;
                let pause = policy.base_backoff_s
                    * policy.multiplier.powi(retries.saturating_sub(1) as i32);
                let ((), record) = metrics::observe(
                    gpu,
                    "resilience/retry-backoff",
                    host.record_count() as u64,
                    |gpu| gpu.charge_backoff(pause),
                );
                resilience_metrics.push(record);
                backoff_s += pause;
                degradations.push(format!(
                    "transient fault ({error}); retry {retries} after {pause:.6}s modeled backoff"
                ));
            }
            FaultClass::Transient => {
                let exhausted = EngineError::RetriesExhausted {
                    attempts,
                    last: Box::new(error),
                };
                if !policy.cpu_fallback {
                    return Err(exhausted);
                }
                degradations.push(format!("{exhausted}; answering on the CPU"));
                return cpu_rung(
                    host,
                    query,
                    attempts,
                    retries,
                    backoff_s,
                    degradations,
                    resilience_metrics,
                );
            }
            FaultClass::Resource => {
                degradations.push(format!(
                    "resource fault ({error}); degrading to out-of-core execution \
                     in {} chunks",
                    policy.oom_chunks.max(1)
                ));
                if query_is_chunkable(query) {
                    match execute_out_of_core(gpu, host, query, options, policy.oom_chunks) {
                        Ok(mut output) => {
                            output.metrics.extend(resilience_metrics);
                            return Ok(ResilientOutput {
                                output,
                                report: ResilienceReport {
                                    path: ResiliencePath::OutOfCore,
                                    attempts,
                                    retries,
                                    backoff_s,
                                    degradations,
                                },
                            });
                        }
                        Err(e) if e.fault_class() == FaultClass::Logic => return Err(e),
                        Err(e) => {
                            if !policy.cpu_fallback {
                                return Err(e);
                            }
                            degradations.push(format!(
                                "out-of-core rung failed ({e}); answering on the CPU"
                            ));
                        }
                    }
                } else {
                    degradations.push(
                        "holistic aggregate is not chunk-decomposable; answering on the CPU"
                            .to_string(),
                    );
                    if !policy.cpu_fallback {
                        return Err(error);
                    }
                }
                if !policy.cpu_fallback {
                    return Err(error);
                }
                return cpu_rung(
                    host,
                    query,
                    attempts,
                    retries,
                    backoff_s,
                    degradations,
                    resilience_metrics,
                );
            }
            FaultClass::Device => {
                if !policy.cpu_fallback {
                    return Err(error);
                }
                degradations.push(format!("device fault ({error}); answering on the CPU"));
                return cpu_rung(
                    host,
                    query,
                    attempts,
                    retries,
                    backoff_s,
                    degradations,
                    resilience_metrics,
                );
            }
        }
    }
}

/// One full GPU attempt: upload from the host copy, execute, free.
fn gpu_attempt(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<QueryOutput> {
    let table = host.upload(gpu)?;
    let result = executor::execute_with_options(gpu, &table, query, options);
    let freed = table.free(gpu);
    let output = result?;
    freed?;
    Ok(output)
}

/// Whether every aggregate combines across chunks. COUNT/SUM/AVG/MIN/MAX
/// do; order statistics (median, k-th, percentile) need the whole domain.
fn query_is_chunkable(query: &Query) -> bool {
    query.aggregates.iter().all(|agg| {
        matches!(
            agg,
            Aggregate::Count
                | Aggregate::Sum(_)
                | Aggregate::Avg(_)
                | Aggregate::Min(_)
                | Aggregate::Max(_)
        )
    })
}

/// How each aggregate of the original SELECT list is reassembled from
/// per-chunk partials.
enum Reassemble {
    Count,
    /// Sum over per-chunk sums at `sums[idx]`.
    Sum(usize),
    /// Sum at `sums[idx]` divided by the total matched count.
    Avg(usize),
    /// Fold over per-chunk extrema at `extrema[idx]`.
    Extremum(usize),
}

/// Out-of-core degradation: execute the query over `chunks` record ranges
/// of the host table, each uploaded separately from the host's own
/// columns, and combine the decomposable partials. The caller has already
/// checked [`query_is_chunkable`].
fn execute_out_of_core(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
    chunks: usize,
) -> EngineResult<QueryOutput> {
    let n = host.record_count();
    let chunk_records = n.div_ceil(chunks.max(1)).max(1);

    // Per-chunk basis: COUNT plus one SUM per SUM/AVG aggregate, and a
    // second pass of MIN/MAX aggregates for chunks with matches (MIN/MAX
    // over an empty chunk is a typed error, not zero).
    let mut basis = vec![Aggregate::Count];
    let mut extrema_aggs: Vec<Aggregate> = Vec::new();
    let mut plan: Vec<Reassemble> = Vec::new();
    for agg in &query.aggregates {
        match agg {
            Aggregate::Count => plan.push(Reassemble::Count),
            Aggregate::Sum(c) => {
                plan.push(Reassemble::Sum(basis.len() - 1));
                basis.push(Aggregate::Sum(c.clone()));
            }
            Aggregate::Avg(c) => {
                plan.push(Reassemble::Avg(basis.len() - 1));
                basis.push(Aggregate::Sum(c.clone()));
            }
            Aggregate::Min(_) | Aggregate::Max(_) => {
                plan.push(Reassemble::Extremum(extrema_aggs.len()));
                extrema_aggs.push(agg.clone());
            }
            _ => unreachable!("query_is_chunkable checked"),
        }
    }

    let mut matched_total = 0u64;
    let mut sums = vec![0u64; basis.len() - 1];
    let mut extrema: Vec<Option<u32>> = vec![None; extrema_aggs.len()];
    let mut all_metrics: Vec<MetricsRecord> = Vec::new();
    let mut timing = OpTiming::default();

    let with_filter = |aggs: Vec<Aggregate>| match query.filter.clone() {
        Some(f) => Query::filtered(aggs, f),
        None => Query::aggregate_all(aggs),
    };

    // `0..n.max(1)`: an empty table still runs one empty chunk so schema
    // and plan validation fire exactly as they would on the full table.
    let mut start = 0usize;
    while start < n.max(1) {
        let table = host.upload_range(gpu, start, start + chunk_records)?;
        let result = (|| -> EngineResult<()> {
            let out =
                executor::execute_with_options(gpu, &table, &with_filter(basis.clone()), options)?;
            matched_total += out.matched;
            for (row, sum) in out.rows.iter().skip(1).zip(sums.iter_mut()) {
                if let (_, AggValue::Sum(v)) = row {
                    *sum += v;
                }
            }
            accumulate_timing(&mut timing, &out.timing);
            all_metrics.extend(out.metrics);
            if out.matched > 0 && !extrema_aggs.is_empty() {
                let out2 = executor::execute_with_options(
                    gpu,
                    &table,
                    &with_filter(extrema_aggs.clone()),
                    options,
                )?;
                for ((slot, agg), row) in extrema.iter_mut().zip(&extrema_aggs).zip(&out2.rows) {
                    if let (_, AggValue::Value(v)) = row {
                        *slot = Some(match (*slot, agg) {
                            (None, _) => *v,
                            (Some(cur), Aggregate::Min(_)) => cur.min(*v),
                            (Some(cur), _) => cur.max(*v),
                        });
                    }
                }
                accumulate_timing(&mut timing, &out2.timing);
                all_metrics.extend(out2.metrics);
            }
            Ok(())
        })();
        let freed = table.free(gpu);
        result?;
        freed?;
        start += chunk_records;
    }

    let mut rows = Vec::with_capacity(query.aggregates.len());
    for (agg, step) in query.aggregates.iter().zip(&plan) {
        let value = match step {
            Reassemble::Count => AggValue::Count(matched_total),
            Reassemble::Sum(i) => AggValue::Sum(sums[*i]),
            Reassemble::Avg(i) => {
                if matched_total == 0 {
                    return Err(EngineError::EmptyInput);
                }
                AggValue::Avg(sums[*i] as f64 / matched_total as f64)
            }
            Reassemble::Extremum(i) => {
                AggValue::Value(extrema[*i].ok_or(EngineError::InvalidK {
                    k: 1,
                    available: matched_total,
                })?)
            }
        };
        rows.push((agg.label(), value));
    }

    all_metrics.push(marker_record("resilience/out-of-core", n as u64));
    Ok(QueryOutput {
        matched: matched_total,
        selectivity: if n == 0 {
            0.0
        } else {
            matched_total as f64 / n as f64
        },
        rows,
        timing,
        metrics: all_metrics,
        trace: None,
    })
}

fn accumulate_timing(total: &mut OpTiming, delta: &OpTiming) {
    total.upload += delta.upload;
    total.copy += delta.copy;
    total.compute += delta.compute;
    total.readback += delta.readback;
    total.other += delta.other;
    total.wall += delta.wall;
}

/// Final rung: the CPU oracle. No device work, so the metrics record is
/// a zero-cost marker and timing is all zeros.
fn cpu_rung(
    host: &HostTable,
    query: &Query,
    attempts: u32,
    retries: u32,
    backoff_s: f64,
    degradations: Vec<String>,
    mut resilience_metrics: Vec<MetricsRecord>,
) -> EngineResult<ResilientOutput> {
    let oracle = cpu_oracle::execute(host, query)?;
    resilience_metrics.push(marker_record(
        "resilience/cpu-fallback",
        host.record_count() as u64,
    ));
    Ok(ResilientOutput {
        output: QueryOutput {
            matched: oracle.matched,
            selectivity: oracle.selectivity,
            rows: oracle.rows,
            timing: OpTiming::default(),
            metrics: resilience_metrics,
            trace: None,
        },
        report: ResilienceReport {
            path: ResiliencePath::Cpu,
            attempts,
            retries,
            backoff_s,
            degradations,
        },
    })
}

/// A metrics record for a step that did no device work: EXPLAIN ANALYZE
/// still shows the stage (satellite of the same guarantee that
/// const-empty selections emit a record) with all-zero cost.
pub(crate) fn marker_record(operator: &str, input_records: u64) -> MetricsRecord {
    MetricsRecord {
        operator: operator.to_string(),
        input_records,
        counters: WorkCounters::default(),
        modeled_ns: PhaseNanos::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::BoolExpr;
    use crate::table::GpuTable;
    use gpudb_sim::CompareFunc;
    use gpudb_sim::{FaultEvent, FaultInjector, FaultKind, GpuError};

    fn host() -> HostTable {
        HostTable::new(
            "t",
            vec![
                ("a", (0u32..64).collect::<Vec<u32>>()),
                ("b", (0u32..64).map(|v| v * 3 % 97).collect::<Vec<u32>>()),
            ],
        )
        .unwrap()
    }

    fn count_sum_query() -> Query {
        Query::filtered(
            vec![
                Aggregate::Count,
                Aggregate::Sum("b".into()),
                Aggregate::Avg("b".into()),
                Aggregate::Min("b".into()),
                Aggregate::Max("b".into()),
            ],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, 8).and(BoolExpr::pred(
                "a",
                CompareFunc::LessEqual,
                40,
            )),
        )
    }

    fn device(host: &HostTable) -> Gpu {
        GpuTable::device_for(host.record_count(), 8)
    }

    #[test]
    fn clean_run_takes_gpu_path_with_plain_metrics() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.attempts, 1);
        assert_eq!(resilient.report.retries, 0);
        assert!(resilient.report.degradations.is_empty());

        // Byte-equal to the plain executor path (modulo wall clock).
        let mut gpu2 = device(&host);
        let table = host.upload(&mut gpu2).unwrap();
        let plain =
            executor::execute_with_options(&mut gpu2, &table, &query, ExecuteOptions::default())
                .unwrap();
        assert_eq!(resilient.output.matched, plain.matched);
        assert_eq!(resilient.output.rows, plain.rows);
        assert_eq!(resilient.output.metrics, plain.metrics);
    }

    #[test]
    fn transient_fault_retries_and_recovers() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::OcclusionLoss,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.retries, 1);
        assert!(resilient.report.backoff_s > 0.0);
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/retry-backoff"));

        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn exhausted_retries_surface_typed_error_without_fallback() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        // More lost queries than the policy has attempts.
        gpu.attach_fault_injector(FaultInjector::with_schedule(
            (0..64)
                .map(|_| FaultEvent {
                    at_ns: 0,
                    kind: FaultKind::OcclusionLoss,
                })
                .collect(),
        ));
        let policy = RetryPolicy {
            cpu_fallback: false,
            ..RetryPolicy::default()
        };
        let err = execute_resilient(&mut gpu, &host, &query, ExecuteOptions::default(), &policy)
            .unwrap_err();
        match err {
            EngineError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, policy.max_attempts);
                assert!(matches!(
                    *last,
                    EngineError::Gpu(GpuError::OcclusionQueryLost)
                ));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn exhausted_retries_fall_back_to_cpu_with_parity() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(
            (0..64)
                .map(|_| FaultEvent {
                    at_ns: 0,
                    kind: FaultKind::OcclusionLoss,
                })
                .collect(),
        ));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/cpu-fallback"));
    }

    #[test]
    fn allocation_failure_degrades_to_out_of_core() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::OutOfCore);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/out-of-core"));
    }

    #[test]
    fn refused_multi_texture_upload_degrades_to_out_of_core_without_leaking() {
        // Six columns need an RGBA and an RG texture (24 B/record); video
        // memory beyond the framebuffer holds 20 B/record, so the full
        // upload is refused at its second texture.
        let records = 4_000u32;
        let host = HostTable::new(
            "wide",
            (0..6u32)
                .map(|c| {
                    let values = (0..records).map(|i| (i * (c + 3)) % 1_000).collect();
                    (format!("c{c}"), values)
                })
                .collect::<Vec<(String, Vec<u32>)>>(),
        )
        .unwrap();
        let mut gpu = GpuTable::device_for(host.record_count(), 100);
        let framebuffer = gpu.vram_used();
        gpu.set_vram_budget(framebuffer + 20 * records as usize);
        let query = Query::filtered(
            vec![Aggregate::Sum("c5".into()), Aggregate::Count],
            BoolExpr::pred("c1", CompareFunc::Less, 500),
        );
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        for _ in 0..3 {
            let resilient = execute_resilient(
                &mut gpu,
                &host,
                &query,
                ExecuteOptions::default(),
                &RetryPolicy::default(),
            )
            .unwrap();
            assert_eq!(resilient.report.path, ResiliencePath::OutOfCore);
            assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
            assert_eq!(gpu.vram_used(), framebuffer);
        }
    }

    #[test]
    fn allocation_failure_with_holistic_aggregate_uses_cpu() {
        let host = host();
        let query = Query::aggregate_all(vec![Aggregate::Median("b".into())]);
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn device_reset_falls_back_to_cpu() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::DeviceReset,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn logic_errors_are_never_retried_or_masked() {
        let host = host();
        let query = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("missing", CompareFunc::Equal, 1),
        );
        let mut gpu = device(&host);
        let err = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::ColumnNotFound(_)));
    }

    #[test]
    fn out_of_core_matches_oracle_on_empty_selection() {
        let host = host();
        // Inverted range: zero matches; AVG must error identically.
        let query = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("b".into())],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, 50).and(BoolExpr::pred(
                "a",
                CompareFunc::LessEqual,
                10,
            )),
        );
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.output.matched, 0);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }
}
