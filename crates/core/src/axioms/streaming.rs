//! Single-pass axiom evaluation: the one definition of every metric that
//! folds over a run.
//!
//! Every axiom of Section 3 is a statement about a trajectory of the form
//! "there is some time step T such that from T onwards …", and each one
//! evaluates as an in-order fold over the run's columns: min/max folds
//! (efficiency, loss-avoidance, convergence, latency), sequential sums
//! (fairness and friendliness tail averages, fast-utilization cumulative
//! gains), or a last-index scan (robustness). None of them needs the
//! trajectory materialized — they need each step's values exactly once,
//! in order.
//!
//! This module provides one online accumulator per axiom plus a combined
//! [`MetricAccumulator`] that consumes [`StepColumns`] — a borrowed,
//! column-major view of consecutive steps — in O(senders) memory,
//! independent of run length. Two producers expose that view without
//! copying:
//!
//! * a simulation engine's staging [`StepBlock`], flushed into the
//!   accumulator from the hot loop (see `axcc-fluidsim`'s `StepSink`), so
//!   metric-only sweeps never allocate a trace;
//! * a finished [`RunTrace`], via [`RunTrace::columns`]: the trace scorers
//!   in the sibling modules (`efficiency::measured_efficiency`, …) replay
//!   the recorded columns through these accumulators in one
//!   [`Accumulator::push_steps`] call.
//!
//! A streamed run and a recorded-then-replayed run therefore score
//! bit-identically by construction: the same accumulator sees the same
//! values in the same order, and only the block boundaries differ. Block
//! boundaries never change a score — every fold hoists its tail and
//! quartile cuts to slice boundaries and otherwise consumes each column in
//! step order, and the tests here replay the same run at several block
//! capacities. Tail boundaries and the robustness quartiles are
//! precomputable because the run length is known up front
//! ([`MetricConfig::steps`]), mirroring [`RunTrace::tail_start`].
//!
//! [`RunTrace`]: crate::trace::RunTrace
//! [`RunTrace::columns`]: crate::trace::RunTrace::columns
//! [`RunTrace::tail_start`]: crate::trace::RunTrace::tail_start

use crate::link::LinkParams;
use crate::trace::SenderTrace;

/// One sender's observation at one step: window, experienced loss, RTT
/// and goodput — one row of the per-sender columns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepRecord {
    /// Congestion window `x_i^(t)` (MSS); 0 for a not-yet-started sender.
    pub window: f64,
    /// Loss rate the sender experienced this step.
    pub loss: f64,
    /// RTT the sender experienced this step (seconds).
    pub rtt: f64,
    /// Goodput this step (MSS/s): delivered window over RTT.
    pub goodput: f64,
}

/// A borrowed, column-major view of consecutive steps of one run: the
/// shared link columns (total window, link RTT, link loss) and each
/// sender's window, loss, goodput and RTT columns.
///
/// [`StepBlock::columns`] and
/// [`RunTrace::columns`](crate::trace::RunTrace::columns) build one
/// without copying, which is what lets a recorded trace be scored by
/// replaying it through the same accumulators a live run streams into.
#[derive(Debug, Clone, Copy)]
pub struct StepColumns<'a> {
    totals: &'a [f64],
    rtts: &'a [f64],
    link_losses: &'a [f64],
    senders: SenderColumns<'a>,
}

/// Where a [`StepColumns`] view finds its per-sender columns.
#[derive(Debug, Clone, Copy)]
enum SenderColumns<'a> {
    /// A [`StepBlock`]'s sender-major staging: sender `i`'s rows start at
    /// `i * stride`. Every sender's RTT is the shared column, as in the
    /// synchronized fluid model.
    Staged {
        n: usize,
        stride: usize,
        windows: &'a [f64],
        losses: &'a [f64],
        goodputs: &'a [f64],
    },
    /// A recorded trace's per-sender columns; a sender's RTT is its own
    /// column when it recorded one (packet-level and multi-hop runs).
    Recorded(&'a [SenderTrace]),
}

impl<'a> StepColumns<'a> {
    /// A view over a recorded run: shared link columns plus one
    /// [`SenderTrace`] per sender, all of equal length.
    pub(crate) fn recorded(
        totals: &'a [f64],
        rtts: &'a [f64],
        link_losses: &'a [f64],
        senders: &'a [SenderTrace],
    ) -> Self {
        StepColumns {
            totals,
            rtts,
            link_losses,
            senders: SenderColumns::Recorded(senders),
        }
    }

    /// Number of steps in view.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether the view holds no step.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Number of senders per step.
    pub fn num_senders(&self) -> usize {
        match self.senders {
            SenderColumns::Staged { n, .. } => n,
            SenderColumns::Recorded(s) => s.len(),
        }
    }

    /// The total-window column `X^(t)`.
    pub fn totals(&self) -> &'a [f64] {
        self.totals
    }

    /// The shared link-RTT column.
    pub fn rtts(&self) -> &'a [f64] {
        self.rtts
    }

    /// The link-loss column.
    pub fn link_losses(&self) -> &'a [f64] {
        self.link_losses
    }

    /// Sender `i`'s window column.
    pub fn windows(&self, i: usize) -> &'a [f64] {
        match self.senders {
            SenderColumns::Staged {
                stride, windows, ..
            } => &windows[i * stride..i * stride + self.len()],
            SenderColumns::Recorded(s) => &s[i].window,
        }
    }

    /// Sender `i`'s loss column.
    pub fn sender_losses(&self, i: usize) -> &'a [f64] {
        match self.senders {
            SenderColumns::Staged { stride, losses, .. } => {
                &losses[i * stride..i * stride + self.len()]
            }
            SenderColumns::Recorded(s) => &s[i].loss,
        }
    }

    /// Sender `i`'s goodput column.
    pub fn goodputs(&self, i: usize) -> &'a [f64] {
        match self.senders {
            SenderColumns::Staged {
                stride, goodputs, ..
            } => &goodputs[i * stride..i * stride + self.len()],
            SenderColumns::Recorded(s) => &s[i].goodput,
        }
    }

    /// Sender `i`'s RTT column: its own if it recorded one, otherwise the
    /// shared link column.
    pub fn sender_rtts(&self, i: usize) -> &'a [f64] {
        match self.senders {
            SenderColumns::Staged { .. } => self.rtts,
            SenderColumns::Recorded(s) => s[i].rtt.as_deref().unwrap_or(self.rtts),
        }
    }
}

/// An online evaluator fed [`StepColumns`] in step order — the interface
/// a live run (engine blocks) and a replayed trace share.
/// [`MetricAccumulator`] and
/// [`ChurnAccumulator`](crate::axioms::churn::ChurnAccumulator) implement
/// it.
pub trait Accumulator {
    /// Consume the next `steps.len()` steps of the run.
    fn push_steps(&mut self, steps: &StepColumns<'_>);

    /// Clear run state, keeping the configuration, so the accumulator can
    /// consume another run of the same shape.
    fn reset(&mut self);
}

/// A fixed-capacity column-major batch of simulation steps — the unit the
/// engine hands its sink (`StepSink::on_steps` in `axcc-fluidsim`).
///
/// The engine stages each step's shared link state and per-sender values
/// into the block and flushes it to the sink when full, so short runs pay
/// one virtual dispatch (and one accumulator tail-boundary check) per
/// block instead of per step. Columns are stored sender-major: sender
/// `i`'s windows occupy one contiguous slice, which is what every
/// accumulator reads (each consumes its column in step order) and what
/// the trace sink extends from.
///
/// [`record`](StepBlock::record) reconstructs the [`StepRecord`] a row
/// holds for one sender (idle senders hold staged zeros; every sender's
/// RTT is the shared column, as in the synchronized fluid model).
#[derive(Debug, Clone, Default)]
pub struct StepBlock {
    n: usize,
    cap: usize,
    len: usize,
    start: usize,
    totals: Vec<f64>,
    rtts: Vec<f64>,
    link_losses: Vec<f64>,
    windows: Vec<f64>,
    losses: Vec<f64>,
    goodputs: Vec<f64>,
}

fn resize_zeroed(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

impl StepBlock {
    /// Default number of steps per block: small enough that the staged
    /// columns stay cache-resident, large enough to amortize the
    /// per-block dispatch down to noise.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty block for `n` senders holding up to `cap` rows.
    pub fn new(n: usize, cap: usize) -> Self {
        let mut block = StepBlock::default();
        block.reshape(n, cap);
        block
    }

    /// Resize for a run shape, zeroing every column and resetting the
    /// cursor. Reusable workspaces call this once per run; when the shape
    /// matches the previous run the buffers are reused in place.
    pub fn reshape(&mut self, n: usize, cap: usize) {
        self.n = n;
        self.cap = cap.max(1);
        self.len = 0;
        self.start = 0;
        resize_zeroed(&mut self.totals, self.cap);
        resize_zeroed(&mut self.rtts, self.cap);
        resize_zeroed(&mut self.link_losses, self.cap);
        resize_zeroed(&mut self.windows, n * self.cap);
        resize_zeroed(&mut self.losses, n * self.cap);
        resize_zeroed(&mut self.goodputs, n * self.cap);
    }

    /// Start a new (empty) block whose first row is absolute step `start`.
    pub fn begin(&mut self, start: usize) {
        self.len = 0;
        self.start = start;
    }

    /// Zero the per-sender columns. Engines whose step loop stages only
    /// the currently-active senders call this at block start so idle
    /// senders read as exact zeros; a run whose senders are all active
    /// throughout writes every slot and may skip it.
    pub fn zero_senders(&mut self) {
        self.windows.fill(0.0);
        self.losses.fill(0.0);
        self.goodputs.fill(0.0);
    }

    /// Stage the current row's shared link state (total window, link RTT,
    /// link loss).
    #[inline]
    pub fn stage_shared(&mut self, total: f64, rtt: f64, loss: f64) {
        self.totals[self.len] = total;
        self.rtts[self.len] = rtt;
        self.link_losses[self.len] = loss;
    }

    /// Stage sender `i`'s values for the current row.
    #[inline]
    pub fn stage_sender(&mut self, i: usize, window: f64, loss: f64, goodput: f64) {
        let at = i * self.cap + self.len;
        self.windows[at] = window;
        self.losses[at] = loss;
        self.goodputs[at] = goodput;
    }

    /// Commit the current row; returns `true` when the block is full —
    /// the caller flushes it to the sink and calls
    /// [`begin`](StepBlock::begin) for the next row.
    #[inline]
    pub fn advance(&mut self) -> bool {
        self.len += 1;
        self.len == self.cap
    }

    /// Committed rows in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of senders per row.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// Maximum rows the block holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Absolute step index of row 0.
    pub fn start_step(&self) -> usize {
        self.start
    }

    /// The committed rows as a column view.
    pub fn columns(&self) -> StepColumns<'_> {
        StepColumns {
            totals: &self.totals[..self.len],
            rtts: &self.rtts[..self.len],
            link_losses: &self.link_losses[..self.len],
            senders: SenderColumns::Staged {
                n: self.n,
                stride: self.cap,
                windows: &self.windows,
                losses: &self.losses,
                goodputs: &self.goodputs,
            },
        }
    }

    /// The committed slice of the total-window column.
    pub fn totals(&self) -> &[f64] {
        &self.totals[..self.len]
    }

    /// The committed slice of the shared link-RTT column.
    pub fn rtts(&self) -> &[f64] {
        &self.rtts[..self.len]
    }

    /// The committed slice of the link-loss column.
    pub fn link_losses(&self) -> &[f64] {
        &self.link_losses[..self.len]
    }

    /// Sender `i`'s committed window column.
    pub fn windows(&self, i: usize) -> &[f64] {
        &self.windows[i * self.cap..i * self.cap + self.len]
    }

    /// Sender `i`'s committed loss column.
    pub fn sender_losses(&self, i: usize) -> &[f64] {
        &self.losses[i * self.cap..i * self.cap + self.len]
    }

    /// Sender `i`'s committed goodput column.
    pub fn goodputs(&self, i: usize) -> &[f64] {
        &self.goodputs[i * self.cap..i * self.cap + self.len]
    }

    /// The [`StepRecord`] row `k` holds for sender `i`.
    pub fn record(&self, i: usize, k: usize) -> StepRecord {
        let at = i * self.cap + k;
        StepRecord {
            window: self.windows[at],
            loss: self.losses[at],
            rtt: self.rtts[k],
            goodput: self.goodputs[at],
        }
    }
}

/// A set of metric families for [`MetricAccumulator`] to maintain —
/// the sink-specialization knob.
///
/// Every call site reads a small, statically-known subset of the axiom
/// scores (a robustness sweep only ever calls
/// [`MetricAccumulator::window_escapes`]; a friendliness job only the
/// fairness-family tail means), yet the combined accumulator pays every
/// family's per-step fold. Restricting the set skips the disabled
/// families' block passes entirely; the enabled families' folds are
/// untouched, so every score that *is* maintained is unchanged. Reading a
/// disabled family is a logic error (caught by `debug_assert!` in the
/// accessors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSet(u8);

impl MetricSet {
    /// Metric I (efficiency) and its mean-utilization companion.
    pub const EFFICIENCY: MetricSet = MetricSet(1 << 0);
    /// Metric III (loss-avoidance) and the zero-loss predicate.
    pub const LOSS_AVOIDANCE: MetricSet = MetricSet(1 << 1);
    /// Metric VIII (latency-avoidance).
    pub const LATENCY: MetricSet = MetricSet(1 << 2);
    /// Metric IV (fairness), Metric VII (friendliness), Jain's index,
    /// and the per-sender tail-mean window/goodput readers.
    pub const FAIRNESS: MetricSet = MetricSet(1 << 3);
    /// Metric V (convergence).
    pub const CONVERGENCE: MetricSet = MetricSet(1 << 4);
    /// Metric VI (robustness): escape, divergence, and last window.
    pub const ROBUSTNESS: MetricSet = MetricSet(1 << 5);
    /// Metric II (fast-utilization).
    pub const FAST_UTILIZATION: MetricSet = MetricSet(1 << 6);
    /// Every family — the default, and the set the equivalence suites run.
    pub const ALL: MetricSet = MetricSet(0x7f);
    /// Metrics I–V and VIII: what a homogeneous ("solo") sweep reads.
    pub const SOLO: MetricSet = MetricSet(
        Self::EFFICIENCY.0
            | Self::LOSS_AVOIDANCE.0
            | Self::LATENCY.0
            | Self::FAIRNESS.0
            | Self::CONVERGENCE.0
            | Self::FAST_UTILIZATION.0,
    );

    /// Does this set include every family in `other`?
    pub fn contains(self, other: MetricSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two sets.
    #[must_use]
    pub fn with(self, other: MetricSet) -> MetricSet {
        MetricSet(self.0 | other.0)
    }
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::ALL
    }
}

/// Static shape of the run the accumulators will consume — the link, run
/// length and per-sender flags a trace records as metadata — plus the
/// evaluation parameters and the [`MetricSet`] selecting which families
/// to maintain.
#[derive(Debug, Clone)]
pub struct MetricConfig {
    /// The (nominal) link of the run; capacity and RTT floor come from
    /// here.
    pub link: LinkParams,
    /// Total number of steps the run will execute.
    pub steps: usize,
    /// Per-sender `loss_based` flags (drives the fast-utilization RTT
    /// eligibility check, like `SenderTrace::loss_based`).
    pub loss_based: Vec<bool>,
    /// Fraction of the run treated as transient; the tail boundary is
    /// `floor(steps · fraction)`, mirroring `RunTrace::tail_start`.
    pub tail_fraction: f64,
    /// Minimum fast-utilization segment horizon (steps).
    pub min_horizon: usize,
    /// Escape threshold β tracked by the robustness accumulator.
    pub escape_beta: f64,
    /// Which metric families to maintain ([`MetricSet::ALL`] for the
    /// full evaluator).
    pub metrics: MetricSet,
}

impl MetricConfig {
    /// The tail boundary this configuration implies — identical to
    /// `RunTrace::tail_start` on the finished trace.
    pub fn tail_start(&self) -> usize {
        let f = self.tail_fraction.clamp(0.0, 1.0);
        (self.steps as f64 * f).floor() as usize
    }
}

/// Metric I (efficiency) online: min-fold of `X^(t)/C` over the tail,
/// plus the mean-utilization companion sum.
#[derive(Debug, Clone)]
pub struct EfficiencyAcc {
    capacity: f64,
    tail_start: usize,
    t: usize,
    worst_ratio: f64,
    sum: f64,
    tail_len: usize,
}

impl EfficiencyAcc {
    /// Accumulator for a run on `link` with the given tail boundary.
    pub fn new(link: &LinkParams, tail_start: usize) -> Self {
        EfficiencyAcc {
            capacity: link.capacity(),
            tail_start,
            t: 0,
            worst_ratio: f64::INFINITY,
            sum: 0.0,
            tail_len: 0,
        }
    }

    /// Consume the next total windows `X^(t)`, in step order.
    pub fn push_block(&mut self, totals: &[f64]) {
        let from = self.tail_start.saturating_sub(self.t).min(totals.len());
        let mut worst = self.worst_ratio;
        let mut sum = self.sum;
        for &total in &totals[from..] {
            worst = f64::min(worst, total / self.capacity);
            sum += total;
        }
        self.worst_ratio = worst;
        self.sum = sum;
        self.tail_len += totals.len() - from;
        self.t += totals.len();
    }

    /// Metric I: the worst tail utilization, capped at 1 (0 for an empty
    /// tail).
    pub fn measured(&self) -> f64 {
        let worst = if self.worst_ratio.is_finite() {
            self.worst_ratio
        } else {
            0.0
        };
        worst.min(1.0)
    }

    /// Mean tail utilization `X/C` (0 for an empty tail).
    pub fn mean_utilization(&self) -> f64 {
        if self.tail_len == 0 {
            return 0.0;
        }
        self.sum / (self.tail_len as f64 * self.capacity)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.worst_ratio = f64::INFINITY;
        self.sum = 0.0;
        self.tail_len = 0;
    }
}

/// Metric III (loss-avoidance) online: max-fold and sum of the link loss
/// column over the tail.
#[derive(Debug, Clone)]
pub struct LossAvoidanceAcc {
    tail_start: usize,
    t: usize,
    worst: f64,
    sum: f64,
    tail_len: usize,
}

impl LossAvoidanceAcc {
    /// Accumulator with the given tail boundary.
    pub fn new(tail_start: usize) -> Self {
        LossAvoidanceAcc {
            tail_start,
            t: 0,
            worst: 0.0,
            sum: 0.0,
            tail_len: 0,
        }
    }

    /// Consume the next link loss rates `L^(t)`, in step order.
    pub fn push_block(&mut self, losses: &[f64]) {
        let from = self.tail_start.saturating_sub(self.t).min(losses.len());
        let mut worst = self.worst;
        let mut sum = self.sum;
        for &loss in &losses[from..] {
            worst = f64::max(worst, loss);
            sum += loss;
        }
        self.worst = worst;
        self.sum = sum;
        self.tail_len += losses.len() - from;
        self.t += losses.len();
    }

    /// Metric III: the largest tail loss rate.
    pub fn measured(&self) -> f64 {
        self.worst
    }

    /// Mean tail loss rate (0 for an empty tail).
    pub fn mean(&self) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.sum / self.tail_len as f64
        }
    }

    /// Whether the tail is 0-loss.
    pub fn is_zero_loss(&self) -> bool {
        self.measured() <= 1e-12
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.worst = 0.0;
        self.sum = 0.0;
        self.tail_len = 0;
    }
}

/// Metric VIII (latency-avoidance) online: max-fold of `RTT/(2Θ) − 1`
/// over the tail, unbounded as soon as a tail step shows loss.
///
/// A lossy tail step latches a flag; once it is set the folded `worst`
/// is discarded, so later steps cannot matter.
#[derive(Debug, Clone)]
pub struct LatencyAcc {
    floor: f64,
    tail_start: usize,
    t: usize,
    saw_tail_loss: bool,
    worst: f64,
}

impl LatencyAcc {
    /// Accumulator for a run on `link` with the given tail boundary.
    pub fn new(link: &LinkParams, tail_start: usize) -> Self {
        LatencyAcc {
            floor: link.min_rtt(),
            tail_start,
            t: 0,
            saw_tail_loss: false,
            worst: 0.0,
        }
    }

    /// Consume the next link RTT and loss rows, in step order.
    pub fn push_block(&mut self, rtts: &[f64], losses: &[f64]) {
        debug_assert_eq!(rtts.len(), losses.len());
        let from = self.tail_start.saturating_sub(self.t).min(rtts.len());
        for k in from..rtts.len() {
            if losses[k] > 0.0 {
                self.saw_tail_loss = true;
            } else if !self.saw_tail_loss {
                self.worst = f64::max(self.worst, rtts[k] / self.floor - 1.0);
            }
        }
        self.t += rtts.len();
    }

    /// Metric VIII: the worst tail RTT inflation over `2Θ`, or infinity
    /// when a tail step overflowed the buffer.
    pub fn measured(&self) -> f64 {
        if self.saw_tail_loss {
            return f64::INFINITY;
        }
        self.worst.max(0.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.saw_tail_loss = false;
        self.worst = 0.0;
    }
}

/// Metrics IV and VII (fairness / friendliness) online: per-sender tail
/// sums of window and goodput, combined into tail averages at read time.
#[derive(Debug, Clone)]
pub struct FairnessAcc {
    tail_start: usize,
    t: usize,
    tail_len: usize,
    win_sums: Vec<f64>,
    goodput_sums: Vec<f64>,
}

impl FairnessAcc {
    /// Accumulator for `n` senders with the given tail boundary.
    pub fn new(n: usize, tail_start: usize) -> Self {
        FairnessAcc {
            tail_start,
            t: 0,
            tail_len: 0,
            win_sums: vec![0.0; n],
            goodput_sums: vec![0.0; n],
        }
    }

    /// Consume the next steps: each per-sender sum folds its own column
    /// in step order.
    pub fn push_steps(&mut self, cols: &StepColumns<'_>) {
        let len = cols.len();
        let from = self.tail_start.saturating_sub(self.t).min(len);
        if from < len {
            for i in 0..self.win_sums.len() {
                let mut ws = self.win_sums[i];
                for &w in &cols.windows(i)[from..len] {
                    ws += w;
                }
                self.win_sums[i] = ws;
                let mut gs = self.goodput_sums[i];
                for &g in &cols.goodputs(i)[from..len] {
                    gs += g;
                }
                self.goodput_sums[i] = gs;
            }
            self.tail_len += len - from;
        }
        self.t += len;
    }

    /// Sender `i`'s tail-average window (0 for an empty tail).
    pub fn tail_mean_window(&self, i: usize) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.win_sums[i] / self.tail_len as f64
        }
    }

    /// Sender `i`'s tail-average goodput (0 for an empty tail).
    pub fn tail_mean_goodput(&self, i: usize) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.goodput_sums[i] / self.tail_len as f64
        }
    }

    /// Metric IV: smallest over largest tail-average window (1 for fewer
    /// than two senders or when all are idle).
    pub fn measured(&self) -> f64 {
        let n = self.win_sums.len();
        if n < 2 {
            return 1.0;
        }
        let avgs = (0..n).map(|i| self.tail_mean_window(i));
        let max = avgs.clone().fold(0.0, f64::max);
        let min = avgs.fold(f64::INFINITY, f64::min);
        if max <= 0.0 {
            return 1.0;
        }
        (min / max).clamp(0.0, 1.0)
    }

    /// Jain's index over tail-average goodputs (1 when all are idle).
    pub fn jain_index(&self) -> f64 {
        let n = self.goodput_sums.len() as f64;
        let g = (0..self.goodput_sums.len()).map(|i| self.tail_mean_goodput(i));
        let sum: f64 = g.clone().sum();
        let sum_sq: f64 = g.map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (n * sum_sq)
    }

    /// Metric VII for P-senders `p` and Q-senders `q` (indices into the
    /// sender order): the smallest Q tail-average window over the largest
    /// P one (1 when either set is empty or P is idle).
    pub fn friendliness(&self, p: &[usize], q: &[usize]) -> f64 {
        if p.is_empty() || q.is_empty() {
            return 1.0;
        }
        let p_max = p
            .iter()
            .map(|&i| self.tail_mean_window(i))
            .fold(0.0, f64::max);
        let q_min = q
            .iter()
            .map(|&j| self.tail_mean_window(j))
            .fold(f64::INFINITY, f64::min);
        if p_max <= 0.0 {
            return 1.0;
        }
        (q_min / p_max).max(0.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.tail_len = 0;
        self.win_sums.fill(0.0);
        self.goodput_sums.fill(0.0);
    }
}

/// Metric V (convergence) online: per-sender `[lo, hi]` window excursion
/// over the tail.
#[derive(Debug, Clone)]
pub struct ConvergenceAcc {
    steps: usize,
    tail_start: usize,
    t: usize,
    los: Vec<f64>,
    his: Vec<f64>,
}

impl ConvergenceAcc {
    /// Accumulator for `n` senders over a `steps`-long run.
    pub fn new(n: usize, steps: usize, tail_start: usize) -> Self {
        ConvergenceAcc {
            steps,
            tail_start,
            t: 0,
            los: vec![f64::INFINITY; n],
            his: vec![0.0; n],
        }
    }

    /// Consume the next steps: each sender's `[lo, hi]` fold consumes its
    /// own column in step order.
    pub fn push_steps(&mut self, cols: &StepColumns<'_>) {
        let len = cols.len();
        let from = self.tail_start.saturating_sub(self.t).min(len);
        if from < len {
            for i in 0..self.los.len() {
                let mut lo = self.los[i];
                let mut hi = self.his[i];
                for &w in &cols.windows(i)[from..len] {
                    lo = f64::min(lo, w);
                    hi = f64::max(hi, w);
                }
                self.los[i] = lo;
                self.his[i] = hi;
            }
        }
        self.t += len;
    }

    /// Metric V: `min_i 2·lo_i / (lo_i + hi_i)`, optimizing each sender's
    /// fixed point (1 for an empty tail or an all-zero sender).
    pub fn measured(&self) -> f64 {
        if self.tail_start.min(self.steps) >= self.steps {
            return 1.0;
        }
        let mut worst = 1.0_f64;
        for i in 0..self.los.len() {
            let (lo, hi) = (self.los[i], self.his[i]);
            let alpha = if hi <= 0.0 { 1.0 } else { 2.0 * lo / (lo + hi) };
            worst = worst.min(alpha);
        }
        worst.clamp(0.0, 1.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.los.fill(f64::INFINITY);
        self.his.fill(0.0);
    }
}

/// Metric VI (robustness) online: per-sender last-dip index below β, the
/// third/fourth-quarter window sums behind the divergence test, and the
/// final window.
#[derive(Debug, Clone)]
pub struct RobustnessAcc {
    beta: f64,
    steps: usize,
    t: usize,
    last_dips: Vec<Option<usize>>,
    q3_sums: Vec<f64>,
    q4_sums: Vec<f64>,
    last_windows: Vec<f64>,
}

impl RobustnessAcc {
    /// Accumulator for `n` senders over a `steps`-long run, tracking
    /// escape above `beta`.
    pub fn new(n: usize, steps: usize, beta: f64) -> Self {
        RobustnessAcc {
            beta,
            steps,
            t: 0,
            last_dips: vec![None; n],
            q3_sums: vec![0.0; n],
            q4_sums: vec![0.0; n],
            last_windows: vec![0.0; n],
        }
    }

    /// Consume the next steps.
    pub fn push_steps(&mut self, cols: &StepColumns<'_>) {
        self.push_windows(cols.len(), |i| cols.windows(i));
    }

    /// Consume the next `len` steps given each sender's window column.
    /// The quartile boundaries hoist to slice boundaries (every row in
    /// `[h_from, q_from)` satisfies `h <= t < q`, and rows from `q_from`
    /// satisfy `t >= q`), and each per-sender sum folds its column in step
    /// order.
    pub(crate) fn push_windows<'c>(&mut self, len: usize, window: impl Fn(usize) -> &'c [f64]) {
        if len == 0 {
            return;
        }
        let (h, q) = (self.steps / 2, 3 * self.steps / 4);
        let h_from = h.saturating_sub(self.t).min(len);
        let q_from = q.saturating_sub(self.t).min(len).max(h_from);
        for i in 0..self.last_dips.len() {
            let col = &window(i)[..len];
            let mut dip = self.last_dips[i];
            for (k, &w) in col.iter().enumerate() {
                if w < self.beta {
                    dip = Some(self.t + k);
                }
            }
            self.last_dips[i] = dip;
            let mut q3 = self.q3_sums[i];
            for &w in &col[h_from..q_from] {
                q3 += w;
            }
            self.q3_sums[i] = q3;
            let mut q4 = self.q4_sums[i];
            for &w in &col[q_from..] {
                q4 += w;
            }
            self.q4_sums[i] = q4;
            self.last_windows[i] = col[len - 1];
        }
        self.t += len;
    }

    /// Whether sender `i`'s window stays at or above β from some step on,
    /// for a suffix of at least `min_suffix_frac` of the run.
    pub fn escapes(&self, i: usize, min_suffix_frac: f64) -> bool {
        let n = self.t;
        if n == 0 {
            return false;
        }
        let suffix_start = match self.last_dips[i] {
            None => 0,
            Some(d) => d + 1,
        };
        let suffix_len = n - suffix_start;
        suffix_len as f64 >= min_suffix_frac * n as f64 && suffix_len > 0
    }

    /// Whether sender `i`'s mean window over the last quarter exceeds the
    /// previous quarter's by more than `growth_margin` (false for runs
    /// shorter than 8 steps).
    pub fn diverging(&self, i: usize, growth_margin: f64) -> bool {
        let n = self.steps;
        if n < 8 {
            return false;
        }
        let q3_len = 3 * n / 4 - n / 2;
        let q4_len = n - 3 * n / 4;
        let q3 = if q3_len == 0 {
            0.0
        } else {
            self.q3_sums[i] / q3_len as f64
        };
        let q4 = if q4_len == 0 {
            0.0
        } else {
            self.q4_sums[i] / q4_len as f64
        };
        q4 > q3 + growth_margin
    }

    /// Sender `i`'s final window, 0 before any step.
    pub fn last_window(&self, i: usize) -> f64 {
        self.last_windows[i]
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.last_dips.fill(None);
        self.q3_sums.fill(0.0);
        self.q4_sums.fill(0.0);
        self.last_windows.fill(0.0);
    }
}

/// Per-sender streaming state for Metric II (fast-utilization): the scan
/// for eligible ascent segments fused with each segment's cumulative-gain
/// fold, using one step of lookback.
///
/// A segment is a maximal stretch with zero loss, no window drop of more
/// than 1%, and (for protocols that are not loss-based) non-increasing
/// RTT. A window drop also ends a segment because sampled traces (the
/// packet-level simulator records state on a fixed grid) can show the
/// loss-triggered back-off one sample after the interval whose loss
/// column marked the event, and an ascent must not span a back-off.
#[derive(Debug, Clone)]
struct FastUtilSender {
    check_rtt: bool,
    prev_window: f64,
    prev_rtt: f64,
    seg_start: Option<usize>,
    x1: f64,
    cum_gain: f64,
    worst: Option<f64>,
}

impl FastUtilSender {
    fn new(loss_based: bool) -> Self {
        FastUtilSender {
            check_rtt: !loss_based,
            prev_window: 0.0,
            prev_rtt: 0.0,
            seg_start: None,
            x1: 0.0,
            cum_gain: 0.0,
            worst: None,
        }
    }

    fn finalize_segment(&mut self, start: usize, end: usize, min_horizon: usize) {
        let len = end - start;
        if len <= min_horizon {
            return;
        }
        let final_dt = (len - 1) as f64;
        let alpha = 2.0 * self.cum_gain / (final_dt * final_dt);
        self.worst = Some(match self.worst {
            None => alpha,
            Some(w) => w.min(alpha),
        });
    }

    /// Consume step `t` of the scan that starts at `from`.
    fn push(
        &mut self,
        t: usize,
        from: usize,
        min_horizon: usize,
        window: f64,
        loss: f64,
        rtt: f64,
    ) {
        let lossy = loss > 0.0;
        let has_prev = t > from;
        let backed_off = has_prev && window < self.prev_window * 0.99 - 1e-12;
        let rtt_rose = self.check_rtt && has_prev && rtt > self.prev_rtt + 1e-12;
        if lossy || backed_off || rtt_rose {
            if let Some(s) = self.seg_start.take() {
                self.finalize_segment(s, t, min_horizon);
            }
            // A back-off or RTT rise ends a segment, but the current step
            // (already at the post-event window) can begin a new one; a
            // lossy step cannot — its window predates the reaction.
            if !lossy {
                self.seg_start = Some(t);
                self.x1 = window;
                self.cum_gain = 0.0;
            }
        } else if self.seg_start.is_none() {
            self.seg_start = Some(t);
            self.x1 = window;
            self.cum_gain = 0.0;
        } else {
            self.cum_gain += window - self.x1;
        }
        self.prev_window = window;
        self.prev_rtt = rtt;
    }

    fn measured(&self, end: usize, min_horizon: usize) -> Option<f64> {
        // Flush the open segment without mutating (`measured` may be read
        // mid-stream); clone the tiny state instead.
        let mut fin = self.clone();
        if let Some(s) = fin.seg_start.take() {
            if end > s {
                fin.finalize_segment(s, end, min_horizon);
            }
        }
        fin.worst.map(|w| w.max(0.0))
    }

    fn reset(&mut self) {
        self.prev_window = 0.0;
        self.prev_rtt = 0.0;
        self.seg_start = None;
        self.x1 = 0.0;
        self.cum_gain = 0.0;
        self.worst = None;
    }
}

/// Metric II (fast-utilization) online, per sender.
#[derive(Debug, Clone)]
pub struct FastUtilizationAcc {
    from: usize,
    min_horizon: usize,
    t: usize,
    senders: Vec<FastUtilSender>,
}

impl FastUtilizationAcc {
    /// Accumulator scanning from step `from` with the given minimum
    /// segment horizon; `loss_based` flags one entry per sender.
    pub fn new(loss_based: &[bool], from: usize, min_horizon: usize) -> Self {
        FastUtilizationAcc {
            from,
            min_horizon,
            t: 0,
            senders: loss_based
                .iter()
                .map(|&lb| FastUtilSender::new(lb))
                .collect(),
        }
    }

    /// Consume the next steps, reading each sender's RTT column (its own
    /// when the view carries one).
    pub fn push_steps(&mut self, cols: &StepColumns<'_>) {
        self.push_columns(cols.len(), |i| {
            (cols.windows(i), cols.sender_losses(i), cols.sender_rtts(i))
        });
    }

    /// Consume the next `len` steps given each sender's (window, loss,
    /// RTT) columns. The segment scan is an inherently sequential state
    /// machine, so each sender replays its rows in step order.
    pub(crate) fn push_columns<'c>(
        &mut self,
        len: usize,
        columns: impl Fn(usize) -> (&'c [f64], &'c [f64], &'c [f64]),
    ) {
        let start = self.from.saturating_sub(self.t).min(len);
        let (t0, from, min_horizon) = (self.t, self.from, self.min_horizon);
        for (i, s) in self.senders.iter_mut().enumerate() {
            let (windows, losses, rtts) = columns(i);
            for k in start..len {
                s.push(t0 + k, from, min_horizon, windows[k], losses[k], rtts[k]);
            }
        }
        self.t += len;
    }

    /// Metric II for sender `i`: the worst normalized cumulative gain
    /// `2·Σ(x(t)−x(t1)) / Δt²` at each eligible segment's largest horizon,
    /// over segments longer than the minimum horizon; `None` when no
    /// segment was long enough to judge.
    pub fn measured(&self, i: usize) -> Option<f64> {
        self.senders[i].measured(self.t, self.min_horizon)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        for s in &mut self.senders {
            s.reset();
        }
    }
}

/// The combined single-pass evaluator: one instance per run, consuming
/// [`StepColumns`] and exposing every axiom score of the run.
#[derive(Debug, Clone)]
pub struct MetricAccumulator {
    steps: usize,
    n: usize,
    t: usize,
    metrics: MetricSet,
    efficiency: EfficiencyAcc,
    loss: LossAvoidanceAcc,
    latency: LatencyAcc,
    fairness: FairnessAcc,
    convergence: ConvergenceAcc,
    robustness: RobustnessAcc,
    fast_utilization: FastUtilizationAcc,
}

impl MetricAccumulator {
    /// Build the accumulator for one run shape.
    pub fn new(cfg: &MetricConfig) -> Self {
        let tail = cfg.tail_start();
        let n = cfg.loss_based.len();
        MetricAccumulator {
            steps: cfg.steps,
            n,
            t: 0,
            metrics: cfg.metrics,
            efficiency: EfficiencyAcc::new(&cfg.link, tail),
            loss: LossAvoidanceAcc::new(tail),
            latency: LatencyAcc::new(&cfg.link, tail),
            fairness: FairnessAcc::new(n, tail),
            convergence: ConvergenceAcc::new(n, cfg.steps, tail),
            robustness: RobustnessAcc::new(n, cfg.steps, cfg.escape_beta),
            fast_utilization: FastUtilizationAcc::new(&cfg.loss_based, tail, cfg.min_horizon),
        }
    }

    /// Steps consumed so far.
    pub fn steps_seen(&self) -> usize {
        self.t
    }

    /// Steps the configuration promised.
    pub fn steps_expected(&self) -> usize {
        self.steps
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// Metric I: worst tail utilization, capped at 1.
    pub fn measured_efficiency(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::EFFICIENCY));
        self.efficiency.measured()
    }

    /// Companion: mean tail utilization.
    pub fn mean_utilization(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::EFFICIENCY));
        self.efficiency.mean_utilization()
    }

    /// Metric III: largest tail loss rate.
    pub fn measured_loss_bound(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.measured()
    }

    /// Companion: mean tail loss rate.
    pub fn mean_loss(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.mean()
    }

    /// Whether the tail is 0-loss.
    pub fn is_zero_loss(&self) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.is_zero_loss()
    }

    /// Metric VIII: worst tail RTT inflation (infinite on a lossy tail).
    pub fn measured_latency_inflation(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LATENCY));
        self.latency.measured()
    }

    /// Metric IV: worst ratio of tail-average windows.
    pub fn measured_fairness(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.measured()
    }

    /// Companion: Jain's index over tail-average goodputs.
    pub fn jain_index(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.jain_index()
    }

    /// Metric V: worst per-sender convergence band.
    pub fn measured_convergence(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::CONVERGENCE));
        self.convergence.measured()
    }

    /// Metric II for sender `i`.
    pub fn measured_fast_utilization(&self, i: usize) -> Option<f64> {
        debug_assert!(self.metrics.contains(MetricSet::FAST_UTILIZATION));
        self.fast_utilization.measured(i)
    }

    /// Metric VII for P-set `p` and Q-set `q`.
    pub fn measured_friendliness(&self, p: &[usize], q: &[usize]) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.friendliness(p, q)
    }

    /// Metric VI for sender `i`: escape above the configured β.
    pub fn window_escapes(&self, i: usize, min_suffix_frac: f64) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.escapes(i, min_suffix_frac)
    }

    /// Metric VI for sender `i`: window still growing at the end.
    pub fn window_diverging(&self, i: usize, growth_margin: f64) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.diverging(i, growth_margin)
    }

    /// Sender `i`'s final window.
    pub fn last_window(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.last_window(i)
    }

    /// Sender `i`'s tail-average window.
    pub fn tail_mean_window(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.tail_mean_window(i)
    }

    /// Sender `i`'s tail-average goodput.
    pub fn tail_mean_goodput(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.tail_mean_goodput(i)
    }
}

impl Accumulator for MetricAccumulator {
    /// Each enabled family walks the view's contiguous columns in step
    /// order; tail boundaries and quartile cuts are computed once per
    /// call.
    fn push_steps(&mut self, cols: &StepColumns<'_>) {
        debug_assert_eq!(cols.num_senders(), self.n);
        let m = self.metrics;
        if m.contains(MetricSet::EFFICIENCY) {
            self.efficiency.push_block(cols.totals());
        }
        if m.contains(MetricSet::LOSS_AVOIDANCE) {
            self.loss.push_block(cols.link_losses());
        }
        if m.contains(MetricSet::LATENCY) {
            self.latency.push_block(cols.rtts(), cols.link_losses());
        }
        if m.contains(MetricSet::FAIRNESS) {
            self.fairness.push_steps(cols);
        }
        if m.contains(MetricSet::CONVERGENCE) {
            self.convergence.push_steps(cols);
        }
        if m.contains(MetricSet::ROBUSTNESS) {
            self.robustness.push_steps(cols);
        }
        if m.contains(MetricSet::FAST_UTILIZATION) {
            self.fast_utilization.push_steps(cols);
        }
        self.t += cols.len();
    }

    /// Sweep jobs reuse one instance across same-shape scenario
    /// variations instead of reallocating per run.
    fn reset(&mut self) {
        self.t = 0;
        self.efficiency.reset();
        self.loss.reset();
        self.latency.reset();
        self.fairness.reset();
        self.convergence.reset();
        self.robustness.reset();
        self.fast_utilization.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{replay, score_bits, small_link, trace_from_windows};
    use crate::trace::RunTrace;

    /// Replay `trace` through `StepBlock`s of capacity `cap`, flushing each
    /// full block — the way the engine delivers a live run.
    fn replay_blocks(trace: &RunTrace, tail_fraction: f64, cap: usize) -> MetricAccumulator {
        let mut acc = replay(trace, tail_fraction, 50.0);
        acc.reset();
        let mut block = StepBlock::new(trace.num_senders(), cap);
        for t in 0..trace.len() {
            block.stage_shared(trace.total_window[t], trace.rtt[t], trace.loss[t]);
            for (i, s) in trace.senders.iter().enumerate() {
                block.stage_sender(i, s.window[t], s.loss[t], s.goodput[t]);
            }
            if block.advance() {
                acc.push_steps(&block.columns());
                block.begin(t + 1);
            }
        }
        if !block.is_empty() {
            acc.push_steps(&block.columns());
        }
        acc
    }

    #[test]
    fn block_boundaries_never_change_a_score() {
        // Odd capacities force tail boundaries and quartile cuts to land
        // mid-block; cap 1 is the per-step path; a cap larger than the run
        // exercises the final partial flush. The whole-trace replay is one
        // block of the run's length.
        let a: Vec<f64> = (0..64).map(|t| 30.0 + (t % 16) as f64 * 4.0).collect();
        let b: Vec<f64> = (0..64).map(|t| 60.0 - (t % 8) as f64 * 3.0).collect();
        let sawtooth = trace_from_windows(small_link(), &[a, b]);
        let lossy: Vec<f64> = (0..48)
            .map(|t| if t % 6 == 5 { 140.0 } else { 80.0 + t as f64 })
            .collect();
        let lossy = trace_from_windows(small_link(), &[lossy]);
        let idle_a = vec![50.0; 32];
        let idle_b: Vec<f64> = (0..32).map(|t| if t < 16 { 0.0 } else { 20.0 }).collect();
        let staggered = trace_from_windows(small_link(), &[idle_a, idle_b]);
        for trace in [&sawtooth, &lossy, &staggered] {
            for frac in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let whole = score_bits(&replay(trace, frac, 50.0));
                for cap in [1, 7, 16, 1024] {
                    let by_block = replay_blocks(trace, frac, cap);
                    assert_eq!(by_block.steps_seen(), trace.len());
                    assert_eq!(score_bits(&by_block), whole, "cap {cap}, tail {frac}");
                }
            }
        }
    }

    #[test]
    fn reset_reproduces_a_fresh_accumulator() {
        let w: Vec<f64> = (0..40).map(|t| 10.0 + t as f64).collect();
        let trace = trace_from_windows(small_link(), &[w]);
        let fresh = replay(&trace, 0.5, 50.0);
        let mut reused = replay(&trace, 0.5, 50.0);
        reused.reset();
        reused.push_steps(&trace.columns());
        assert_eq!(score_bits(&reused), score_bits(&fresh));
    }

    #[test]
    fn step_block_layout_round_trips_records() {
        let mut block = StepBlock::new(2, 4);
        block.begin(10);
        for k in 0..3 {
            block.stage_shared(100.0 + k as f64, 0.05, 0.01 * k as f64);
            block.stage_sender(0, 1.0 + k as f64, 0.0, 9.0);
            block.stage_sender(1, 2.0 + k as f64, 0.5, 8.0);
            assert!(!block.advance());
        }
        assert_eq!(block.len(), 3);
        assert_eq!(block.start_step(), 10);
        assert_eq!(block.num_senders(), 2);
        assert_eq!(block.totals(), &[100.0, 101.0, 102.0]);
        assert_eq!(block.windows(0), &[1.0, 2.0, 3.0]);
        assert_eq!(block.windows(1), &[2.0, 3.0, 4.0]);
        let r = block.record(1, 2);
        assert_eq!(r.window, 4.0);
        assert_eq!(r.loss, 0.5);
        assert_eq!(r.rtt, 0.05);
        assert_eq!(r.goodput, 8.0);
        // The column view sees exactly the committed rows.
        let cols = block.columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.num_senders(), 2);
        assert_eq!(cols.windows(1), block.windows(1));
        assert_eq!(cols.sender_losses(1), &[0.5; 3]);
        assert_eq!(cols.goodputs(0), block.goodputs(0));
        assert_eq!(cols.sender_rtts(1), block.rtts());
        // The fourth row fills the block.
        block.stage_shared(103.0, 0.05, 0.0);
        block.stage_sender(0, 4.0, 0.0, 9.0);
        block.stage_sender(1, 5.0, 0.0, 8.0);
        assert!(block.advance());
        assert_eq!(block.len(), block.capacity());
        // Reshape resets and re-zeroes for a new run shape.
        block.reshape(3, 8);
        assert!(block.is_empty());
        assert_eq!(block.num_senders(), 3);
        assert!(block.windows(2).is_empty());
        block.stage_shared(1.0, 0.1, 0.0);
        assert!(!block.advance());
        assert_eq!(block.windows(2), &[0.0]);
    }

    #[test]
    fn trace_columns_prefer_own_rtt() {
        let mut trace = trace_from_windows(small_link(), &[vec![50.0; 4], vec![60.0; 4]]);
        let own: Vec<f64> = trace.rtt.iter().map(|r| r * 1.5).collect();
        *trace.senders[1].own_rtt_mut() = own.clone();
        let cols = trace.columns();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.sender_rtts(0), &trace.rtt[..]);
        assert_eq!(cols.sender_rtts(1), &own[..]);
        assert_eq!(cols.windows(1), &trace.senders[1].window[..]);
    }

    #[test]
    fn mid_stream_reads_do_not_disturb_the_final_score() {
        // Fast-utilization's reader clones to flush the open segment;
        // reading between blocks must not corrupt state.
        let w: Vec<f64> = (0..40).map(|t| 10.0 + t as f64).collect();
        let trace = trace_from_windows(small_link(), &[w]);
        let mut acc = replay(&trace, 0.0, 50.0);
        acc.reset();
        let mut block = StepBlock::new(1, 1);
        for t in 0..trace.len() {
            let s = &trace.senders[0];
            block.begin(t);
            block.stage_shared(trace.total_window[t], trace.rtt[t], trace.loss[t]);
            block.stage_sender(0, s.window[t], s.loss[t], s.goodput[t]);
            block.advance();
            acc.push_steps(&block.columns());
            let _ = acc.measured_fast_utilization(0);
        }
        assert_eq!(score_bits(&acc), score_bits(&replay(&trace, 0.0, 50.0)));
    }
}
