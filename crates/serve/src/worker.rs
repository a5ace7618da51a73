//! Job execution and the daemon's one panic boundary.
//!
//! [`execute`] runs a queued operation inside `catch_unwind` — the single
//! place in the workspace (outside the protocol registry's constructor
//! guard) where a panic is deliberately caught. The contract: a poisoned
//! scenario takes down *its own request* with a typed `job-panicked`
//! error, never the worker thread and never the daemon. Two unwind
//! payloads are special-cased:
//!
//! * [`Interrupted`](axcc_sweep::Interrupted) — a deadline-cancelled
//!   sweep; reported as `timeout`, with completed-job counts attached
//!   (the completed work is already in the shared cache, so a retry
//!   resumes rather than restarts).
//! * everything else — a genuine panic; reported as `job-panicked` with
//!   the panic message.
//!
//! Evaluations reuse the sweep engine: inline scenarios go through
//! [`SweepRunner::run_cached`] (content-addressed, one evaluation per
//! distinct spec per cache lifetime) and registry experiments run on a
//! per-request runner wired to the shared store and the request's
//! cancellation signal.

use crate::protocol::{ErrorKind, EvalSpec, ExperimentSpec, Op};
use axcc_analysis::estimators::{solo_metrics_of_acc, stream_options_for};
use axcc_analysis::experiments::{find_experiment, RunBudget};
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_fluidsim::{
    metric_accumulator_for, try_run_scenario_streaming_into, LossModel, MetricAccumulator,
    MetricSet, Scenario, SenderConfig,
};
use axcc_protocols::registry::resolve;
use axcc_sweep::{interrupted_payload, Cacheable, CancelSignal, Record, SweepRunner};
use serde_json::{Map, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a job produced: a result value, or a typed error.
pub(crate) type JobResult = Result<Value, (ErrorKind, String)>;

/// Run one queued operation to completion under the panic boundary.
///
/// `runner` is this request's sweep runner (shared cache, per-request
/// cancellation); `cancel` is the request's deadline/shutdown flag.
pub(crate) fn execute(op: &Op, runner: &SweepRunner, cancel: &Arc<AtomicBool>) -> JobResult {
    // Pre-claim check: if the deadline already passed while the job sat
    // in the queue, don't burn a worker on it.
    if cancel.load(Ordering::SeqCst) {
        return Err((
            ErrorKind::Timeout,
            "deadline passed before the job started".to_string(),
        ));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| run_op(op, runner)));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            if let Some(info) = interrupted_payload(payload.as_ref()) {
                Err((
                    ErrorKind::Timeout,
                    format!(
                        "deadline passed after {} of {} jobs (completed results are cached; \
                         a retry resumes from them)",
                        info.completed, info.total
                    ),
                ))
            } else {
                Err((ErrorKind::JobPanicked, panic_text(payload.as_ref())))
            }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

fn run_op(op: &Op, runner: &SweepRunner) -> JobResult {
    match op {
        Op::Eval(spec) => run_eval(spec, runner),
        Op::Experiment(spec) => run_experiment(spec, runner),
        Op::DebugPanic => {
            // tidy-allow: panic-freedom — test-only op whose entire purpose is to exercise the catch_unwind boundary above.
            panic!("debug-panic requested")
        }
        Op::DebugSleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            Ok(serde_json::json!({"slept_ms": *ms}))
        }
        // Ping/Stats/Shutdown are answered at the connection, not queued.
        Op::Ping | Op::Stats | Op::Shutdown => Ok(Value::Null),
    }
}

/// The cacheable outcome of one inline evaluation: per-sender tail means
/// plus the solo axiom metrics of the run.
#[derive(Debug, Clone, PartialEq)]
struct EvalOutcome {
    protocols: Vec<String>,
    mean_window: Vec<f64>,
    mean_goodput: Vec<f64>,
    efficiency: f64,
    loss_bound: f64,
    fairness: f64,
    convergence: f64,
    fast_utilization: Option<f64>,
    latency_inflation: f64,
    mean_utilization: f64,
}

impl EvalOutcome {
    fn encode_into(&self, r: &mut Record) {
        r.push_usize(self.protocols.len());
        for p in &self.protocols {
            r.push_str(p);
        }
        for &w in &self.mean_window {
            r.push_f64(w);
        }
        for &g in &self.mean_goodput {
            r.push_f64(g);
        }
        r.push_f64(self.efficiency);
        r.push_f64(self.loss_bound);
        r.push_f64(self.fairness);
        r.push_f64(self.convergence);
        r.push_opt_f64(self.fast_utilization);
        r.push_f64(self.latency_inflation);
        r.push_f64(self.mean_utilization);
    }

    fn decode_from(rd: &mut axcc_sweep::RecordReader<'_>) -> Option<Self> {
        let n = rd.usize()?;
        let mut protocols = Vec::with_capacity(n);
        for _ in 0..n {
            protocols.push(rd.str()?.to_string());
        }
        let mut mean_window = Vec::with_capacity(n);
        for _ in 0..n {
            mean_window.push(rd.f64()?);
        }
        let mut mean_goodput = Vec::with_capacity(n);
        for _ in 0..n {
            mean_goodput.push(rd.f64()?);
        }
        Some(EvalOutcome {
            protocols,
            mean_window,
            mean_goodput,
            efficiency: rd.f64()?,
            loss_bound: rd.f64()?,
            fairness: rd.f64()?,
            convergence: rd.f64()?,
            fast_utilization: rd.opt_f64()?,
            latency_inflation: rd.f64()?,
            mean_utilization: rd.f64()?,
        })
    }
}

fn json_f64(v: f64) -> Value {
    Value::Number(v)
}

impl EvalOutcome {
    fn to_value(&self) -> Value {
        let senders: Vec<Value> = self
            .protocols
            .iter()
            .zip(self.mean_window.iter().zip(self.mean_goodput.iter()))
            .map(|(p, (&w, &g))| {
                let mut m = Map::new();
                m.insert("protocol".to_string(), Value::String(p.clone()));
                m.insert("mean_window".to_string(), json_f64(w));
                m.insert("mean_goodput".to_string(), json_f64(g));
                Value::Object(m)
            })
            .collect();
        let mut metrics = Map::new();
        metrics.insert("efficiency".to_string(), json_f64(self.efficiency));
        metrics.insert("loss_bound".to_string(), json_f64(self.loss_bound));
        metrics.insert("fairness".to_string(), json_f64(self.fairness));
        metrics.insert("convergence".to_string(), json_f64(self.convergence));
        metrics.insert(
            "fast_utilization".to_string(),
            match self.fast_utilization {
                Some(v) => json_f64(v),
                None => Value::Null,
            },
        );
        metrics.insert(
            "latency_inflation".to_string(),
            json_f64(self.latency_inflation),
        );
        metrics.insert(
            "mean_utilization".to_string(),
            json_f64(self.mean_utilization),
        );
        let mut m = Map::new();
        m.insert("senders".to_string(), Value::Array(senders));
        m.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(m)
    }
}

/// Pre-validate the link fields [`LinkParams::new`] would otherwise
/// assert on (its panic contract is for programmer error; a wire spec is
/// user input and gets a typed refusal instead).
fn validate_link(spec: &EvalSpec) -> Result<(), (ErrorKind, String)> {
    let bad = |field: &str, value: f64| {
        Err((
            ErrorKind::InvalidScenario,
            format!("invalid link: {field} = {value} is out of domain"),
        ))
    };
    if !(spec.mbps.is_finite() && spec.mbps > 0.0) {
        return bad("mbps", spec.mbps);
    }
    if !(spec.rtt_ms.is_finite() && spec.rtt_ms > 0.0) {
        return bad("rtt_ms", spec.rtt_ms);
    }
    if !(spec.buffer.is_finite() && spec.buffer >= 0.0) {
        return bad("buffer", spec.buffer);
    }
    if !(spec.wire_loss.is_finite() && (0.0..1.0).contains(&spec.wire_loss)) {
        return bad("wire_loss", spec.wire_loss);
    }
    Ok(())
}

/// Build the spec's scenario and stream it into a [`MetricSet::SOLO`]
/// accumulator — the solo metrics plus the per-sender tail means.
fn build_and_run(spec: &EvalSpec) -> Result<MetricAccumulator, (ErrorKind, String)> {
    validate_link(spec)?;
    let link = LinkParams::from_experiment(Bandwidth::Mbps(spec.mbps), spec.rtt_ms, spec.buffer);
    let mut sc = Scenario::new(link).steps(spec.steps).seed(spec.seed);
    if spec.wire_loss > 0.0 {
        sc = sc.wire_loss(LossModel::Bernoulli {
            rate: spec.wire_loss,
        });
    }
    for name in &spec.protocols {
        let proto = resolve(name).map_err(|e| (ErrorKind::InvalidScenario, e.to_string()))?;
        sc = sc.sender(SenderConfig::new(proto).initial_window(1.0));
    }
    let mut acc = metric_accumulator_for(&sc, &stream_options_for(MetricSet::SOLO));
    try_run_scenario_streaming_into(sc, &mut acc)
        .map_err(|e| (ErrorKind::InvalidScenario, e.to_string()))?;
    Ok(acc)
}

/// `Result` wrapper so *validation outcomes* are cacheable alongside
/// scores: a spec that fails scenario validation fails deterministically,
/// so the typed error is as cache-worthy as a score (and a hot client
/// retrying a bad spec costs the daemon a lookup, not a simulation).
#[derive(Debug, Clone, PartialEq)]
struct CachedEval(Result<EvalOutcome, String>);

impl Cacheable for CachedEval {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        match &self.0 {
            Ok(out) => {
                r.push_bool(true);
                out.encode_into(&mut r);
            }
            Err(msg) => {
                r.push_bool(false);
                r.push_str(msg);
            }
        }
        r
    }

    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let inner = if rd.bool()? {
            Ok(EvalOutcome::decode_from(&mut rd)?)
        } else {
            Err(rd.str()?.to_string())
        };
        if !rd.exhausted() {
            return None;
        }
        Some(CachedEval(inner))
    }
}

fn run_eval(spec: &EvalSpec, runner: &SweepRunner) -> JobResult {
    let cached = runner.run_cached("serve/eval", spec, || {
        CachedEval(match build_and_run(spec) {
            Ok(acc) => {
                let m = solo_metrics_of_acc(&acc);
                let n = acc.num_senders();
                Ok(EvalOutcome {
                    protocols: spec.protocols.clone(),
                    mean_window: (0..n).map(|i| acc.tail_mean_window(i)).collect(),
                    mean_goodput: (0..n).map(|i| acc.tail_mean_goodput(i)).collect(),
                    efficiency: m.efficiency,
                    loss_bound: m.loss_bound,
                    fairness: m.fairness,
                    convergence: m.convergence,
                    fast_utilization: m.fast_utilization,
                    latency_inflation: m.latency_inflation,
                    mean_utilization: m.mean_utilization,
                })
            }
            Err((_, msg)) => Err(msg),
        })
    });
    match cached.0 {
        Ok(outcome) => Ok(outcome.to_value()),
        Err(msg) => Err((ErrorKind::InvalidScenario, msg)),
    }
}

fn run_experiment(spec: &ExperimentSpec, runner: &SweepRunner) -> JobResult {
    let exp = find_experiment(&spec.name).ok_or_else(|| {
        (
            ErrorKind::BadRequest,
            format!(
                "unknown experiment `{}` (see `axcc run-all` for names)",
                spec.name
            ),
        )
    })?;
    let budget = if spec.smoke {
        RunBudget::smoke()
    } else {
        RunBudget::paper()
    };
    let outcome = (exp.run)(runner, budget);
    let stats = runner.stats();
    let mut m = Map::new();
    m.insert(
        "experiment".to_string(),
        Value::String(exp.name.to_string()),
    );
    m.insert(
        "artifact".to_string(),
        Value::String(exp.artifact.to_string()),
    );
    m.insert("passed".to_string(), Value::Bool(outcome.passed));
    m.insert("report".to_string(), Value::String(outcome.report));
    m.insert("cache_hits".to_string(), json_f64(stats.cache_hits as f64));
    m.insert("executed".to_string(), json_f64(stats.executed as f64));
    Ok(Value::Object(m))
}

/// Build the per-request sweep runner: shared store, request-scoped
/// cancellation (deadline or drain), serial within the request (requests
/// are the unit of parallelism; the worker pool provides the fan-out).
pub(crate) fn request_runner(
    cache: &Arc<axcc_sweep::ResultCache>,
    cancel: &Arc<AtomicBool>,
) -> SweepRunner {
    let flag = cancel.clone();
    SweepRunner::with_cache_handle(1, cache.clone())
        .with_cancel(CancelSignal::from_fn(move || flag.load(Ordering::SeqCst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_sweep::ResultCache;

    fn fresh_runner() -> (Arc<ResultCache>, Arc<AtomicBool>, SweepRunner) {
        let cache = Arc::new(ResultCache::in_memory());
        let cancel = Arc::new(AtomicBool::new(false));
        let runner = request_runner(&cache, &cancel);
        (cache, cancel, runner)
    }

    fn eval_spec() -> EvalSpec {
        EvalSpec {
            protocols: vec!["reno".to_string(), "cubic".to_string()],
            mbps: 20.0,
            rtt_ms: 42.0,
            buffer: 100.0,
            steps: 400,
            seed: 0,
            wire_loss: 0.0,
        }
    }

    #[test]
    fn eval_scores_and_caches() {
        let (cache, _cancel, runner) = fresh_runner();
        let v = execute(
            &Op::Eval(eval_spec()),
            &runner,
            &Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        let senders = v.get("senders").and_then(Value::as_array).unwrap();
        assert_eq!(senders.len(), 2);
        assert!(
            v.get("metrics")
                .unwrap()
                .get("efficiency")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(cache.len(), 1);
        // Second request over a fresh runner sharing the cache: a hit.
        let cancel2 = Arc::new(AtomicBool::new(false));
        let runner2 = request_runner(&cache, &cancel2);
        let v2 = execute(&Op::Eval(eval_spec()), &runner2, &cancel2).unwrap();
        assert_eq!(v.render_compact(), v2.render_compact());
        assert_eq!(runner2.stats().cache_hits, 1);
    }

    #[test]
    fn unknown_protocol_is_invalid_scenario() {
        let (_c, cancel, runner) = fresh_runner();
        let mut spec = eval_spec();
        spec.protocols = vec!["warp-drive".to_string()];
        let (kind, msg) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::InvalidScenario);
        assert!(!msg.is_empty());
    }

    #[test]
    fn bad_link_is_invalid_scenario_not_a_crash() {
        let (_c, cancel, runner) = fresh_runner();
        let mut spec = eval_spec();
        spec.mbps = -5.0;
        let (kind, _) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::InvalidScenario);
    }

    #[test]
    fn panicking_job_is_contained() {
        let (_c, cancel, runner) = fresh_runner();
        let (kind, msg) = execute(&Op::DebugPanic, &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::JobPanicked);
        assert!(msg.contains("debug-panic"));
    }

    #[test]
    fn pre_raised_cancel_is_a_timeout_without_work() {
        let (_c, _cancel, runner) = fresh_runner();
        let cancel = Arc::new(AtomicBool::new(true));
        let (kind, _) = execute(&Op::Eval(eval_spec()), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::Timeout);
    }

    #[test]
    fn cancelled_experiment_reports_timeout_with_progress() {
        let (cache, cancel, runner) = fresh_runner();
        cancel.store(true, Ordering::SeqCst);
        // Bypass the pre-claim check to exercise the unwind path.
        let fresh = Arc::new(AtomicBool::new(false));
        let spec = ExperimentSpec {
            name: "table1".to_string(),
            smoke: true,
        };
        let (kind, msg) = execute(&Op::Experiment(spec), &runner, &fresh).unwrap_err();
        assert_eq!(kind, ErrorKind::Timeout);
        assert!(msg.contains("deadline"), "{msg}");
        drop(cache);
    }

    #[test]
    fn unknown_experiment_is_bad_request() {
        let (_c, cancel, runner) = fresh_runner();
        let spec = ExperimentSpec {
            name: "no-such-table".to_string(),
            smoke: true,
        };
        let (kind, _) = execute(&Op::Experiment(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
    }
}
