//! The ordered worker pool.
//!
//! Workers *claim* work dynamically — an atomic cursor over the job
//! index space — but every result lands in a preallocated slot keyed by
//! its submission index, so the returned `Vec` is a pure function of the
//! inputs. Scheduling is therefore free to be nondeterministic (which
//! worker runs which job, and in what order chunks finish, varies run to
//! run) while the output is not. Combined with the workspace invariant
//! that every job body is itself deterministic (no wall-clock, no
//! ambient randomness — enforced by `axcc-tidy`), a parallel sweep is
//! bit-identical to a serial one.
//!
//! Claims are **chunked**: the cursor steps by a whole contiguous chunk
//! of jobs, so for a sweep of `n` jobs the claim traffic is `n / chunk`
//! atomic operations and `n / chunk` slot-vector lock acquisitions, not
//! `n` of each. Per-job locks or channel round-trips in these dispatch
//! loops are a flagged regression (`axcc-tidy`'s lock-discipline family);
//! results are flushed once per chunk via [`store_chunk`].
//!
//! Cancellation follows the same discipline: a raised
//! [`CancelSignal`](crate::cancel::CancelSignal) stops workers from
//! *claiming* further chunks (and the chunk processor from starting
//! further jobs within a claimed chunk), but started jobs always run to
//! completion, so an interrupted pool reports "n of m completed" rather
//! than tearing down mid-result.

use crate::cancel::CancelSignal;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

/// Upper clamp on automatic chunk sizes: past this, bigger chunks no
/// longer reduce measurable claim traffic but do worsen tail imbalance.
const MAX_AUTO_CHUNK: usize = 8192;

/// Chunks-per-worker factor for automatic sizing: eight claims per
/// worker amortizes the cursor + flush cost to noise while leaving
/// enough chunks for the fastest worker to steal the tail.
const CHUNKS_PER_WORKER: usize = 8;

/// The default chunk size for `jobs` jobs over `workers` workers:
/// `max(1, jobs / (8·workers))`, clamped to [`1, 8192`].
pub fn default_chunk_size(jobs: usize, workers: usize) -> usize {
    (jobs / (CHUNKS_PER_WORKER * workers.max(1))).clamp(1, MAX_AUTO_CHUNK)
}

/// Run `process` over the job index space `0..jobs` in contiguous chunks
/// of `chunk_size`, returning all results in submission order.
///
/// `process(range, out)` must evaluate the jobs in `range` in ascending
/// index order, pushing exactly one result per job onto `out` (handed in
/// empty); it may stop early — pushing fewer — only once the cancel
/// signal is raised, and the jobs it did push must be the leading prefix
/// of the range. Results land in a preallocated slot vector, flushed
/// once per chunk, so the parallel output is bit-identical to the serial
/// one for any worker count and any chunk size.
///
/// With `workers <= 1` (or fewer than two jobs) no thread is spawned and
/// the chunks run inline on the caller's thread — the serial reference
/// path that the parallel path must reproduce bit-for-bit. If a job
/// panics, the panic is re-raised on the caller's thread after the
/// remaining workers drain.
///
/// The signal is polled before every claim. Returns
/// `Err(completed_count)` if it stopped the sweep short — never a
/// partial `Vec`.
pub fn run_chunked_cancellable<T, F>(
    workers: usize,
    jobs: usize,
    chunk_size: usize,
    process: F,
    cancel: Option<&CancelSignal>,
) -> Result<Vec<T>, usize>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    let chunk = chunk_size.max(1);

    if workers <= 1 || jobs <= 1 {
        // Serial reference path: no threads, no slot vector, no locks.
        let mut out = Vec::with_capacity(jobs);
        let mut start = 0;
        while start < jobs {
            if cancel.is_some_and(CancelSignal::is_raised) {
                return Err(out.len());
            }
            let end = (start + chunk).min(jobs);
            let before = out.len();
            process(start..end, &mut out);
            if out.len() - before < end - start {
                // The processor stopped mid-chunk (cancel raised inside).
                return Err(out.len());
            }
            start = end;
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let short_flag = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    let n_workers = workers.min(jobs.div_ceil(chunk));
    let panicked = thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<T> = Vec::new();
                    loop {
                        if cancel.is_some_and(CancelSignal::is_raised) {
                            break;
                        }
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs {
                            break;
                        }
                        let end = (start + chunk).min(jobs);
                        local.clear();
                        process(start..end, &mut local);
                        let short = local.len() < end - start;
                        store_chunk(&slots, start, &mut local);
                        if short {
                            // Cancelled mid-chunk: the flushed prefix
                            // counts as completed, nothing further starts.
                            short_flag.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                })
            })
            .collect();
        let mut panic_payload = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload = Some(payload);
            }
        }
        panic_payload
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }

    let filled = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    // A sweep can only come up short if a chunk was cut mid-flight or the
    // signal stopped claims; otherwise every slot is provably filled and
    // the O(jobs) completion scan is skipped.
    if short_flag.load(Ordering::Relaxed) || cancel.is_some_and(CancelSignal::is_raised) {
        let completed = filled.iter().filter(|s| s.is_some()).count();
        if completed < jobs {
            return Err(completed);
        }
    }
    let mut out = Vec::with_capacity(jobs);
    out.extend(filled.into_iter().flatten());
    Ok(out)
}

/// Flush one chunk's results into their submission-order slots: a single
/// lock acquisition per *chunk*. This helper is deliberately outside the
/// claim loop — locking per job in a dispatch loop is the regression the
/// lock-discipline tidy family flags.
fn store_chunk<T>(slots: &Mutex<Vec<Option<T>>>, start: usize, results: &mut Vec<T>) {
    let mut guard: MutexGuard<'_, Vec<Option<T>>> =
        slots.lock().unwrap_or_else(PoisonError::into_inner);
    // One slice bounds check for the whole chunk, not one per job.
    let lane = &mut guard[start..start + results.len()];
    for (slot, value) in lane.iter_mut().zip(results.drain(..)) {
        *slot = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Per-job processor: `f` applied to each index of the chunk, in order.
    fn each<T>(f: impl Fn(usize) -> T + Sync) -> impl Fn(Range<usize>, &mut Vec<T>) + Sync {
        move |range, out| out.extend(range.map(&f))
    }

    #[test]
    fn parallel_matches_serial_order() {
        let serial = run_chunked_cancellable(1, 97, 1, each(|i| (i, i * i)), None).unwrap();
        let parallel = run_chunked_cancellable(8, 97, 1, each(|i| (i, i * i)), None).unwrap();
        assert_eq!(serial, (0..97).map(|i| (i, i * i)).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty = run_chunked_cancellable(4, 0, 1, each(|i| i), None).unwrap();
        assert!(empty.is_empty());
        let single = run_chunked_cancellable(4, 1, 1, each(|i| i + 8), None).unwrap();
        assert_eq!(single, vec![8]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = run_chunked_cancellable(16, 3, 1, each(|i| (i + 1) * 10), None).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_chunked_cancellable(
                4,
                8,
                1,
                each(|x| {
                    assert!(x != 5, "boom");
                    x
                }),
                None,
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn raised_signal_stops_serial_claims() {
        let flag = Arc::new(AtomicBool::new(false));
        let sig = CancelSignal::from_flag(flag.clone());
        let raise_at_two = each(|x| {
            if x == 2 {
                flag.store(true, Ordering::SeqCst);
            }
            x
        });
        let completed = run_chunked_cancellable(1, 10, 1, raise_at_two, Some(&sig)).unwrap_err();
        // Jobs 0..=2 ran (the flag went up inside job 2); job 3 was never claimed.
        assert_eq!(completed, 3);
    }

    #[test]
    fn raised_signal_stops_parallel_claims_without_partial_output() {
        let flag = Arc::new(AtomicBool::new(false));
        let sig = CancelSignal::from_flag(flag.clone());
        let raise_at_eight = each(|x| {
            if x == 8 {
                flag.store(true, Ordering::SeqCst);
            }
            x
        });
        let completed = run_chunked_cancellable(4, 64, 1, raise_at_eight, Some(&sig)).unwrap_err();
        assert!(completed < 64);
        // In-flight jobs finished: the job that raised the flag completed.
        assert!(completed >= 1);
    }

    #[test]
    fn unraised_signal_changes_nothing() {
        let sig = CancelSignal::from_fn(|| false);
        let out = run_chunked_cancellable(4, 20, 1, each(|x| x * 2), Some(&sig)).unwrap();
        assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn signal_raised_before_start_completes_zero() {
        let sig = CancelSignal::from_fn(|| true);
        let completed = run_chunked_cancellable(1, 5, 1, each(|x| x), Some(&sig)).unwrap_err();
        assert_eq!(completed, 0);
    }

    /// Reference chunk processor: push each job's value in range order.
    fn square_range(range: Range<usize>, out: &mut Vec<usize>) {
        for idx in range {
            out.push(idx * idx);
        }
    }

    #[test]
    fn chunked_output_is_identical_across_worker_and_chunk_counts() {
        let jobs = 103;
        let reference = run_chunked_cancellable(1, jobs, 1, square_range, None).unwrap();
        for workers in [1, 2, 3, 8] {
            // Chunk 1, chunk larger than jobs, and ragged tails in between.
            for chunk in [1, 2, 7, 64, 103, 1000] {
                let out =
                    run_chunked_cancellable(workers, jobs, chunk, square_range, None).unwrap();
                assert_eq!(out, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunk_size_zero_is_clamped_to_one() {
        let out = run_chunked_cancellable(4, 10, 0, square_range, None).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn mid_chunk_cancellation_flushes_the_prefix() {
        // One worker, one chunk of 8: the processor stops after 3 jobs.
        let flag = Arc::new(AtomicBool::new(false));
        let sig = CancelSignal::from_flag(flag.clone());
        let completed = run_chunked_cancellable(
            2,
            8,
            8,
            |range, out: &mut Vec<usize>| {
                for idx in range {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if idx == 2 {
                        flag.store(true, Ordering::SeqCst);
                    }
                    out.push(idx);
                }
            },
            Some(&sig),
        )
        .unwrap_err();
        // Jobs 0..=2 completed and were flushed despite the mid-chunk stop.
        assert_eq!(completed, 3);
    }

    #[test]
    fn default_chunk_size_tracks_jobs_and_workers() {
        assert_eq!(default_chunk_size(0, 4), 1);
        assert_eq!(default_chunk_size(24, 4), 1);
        assert_eq!(default_chunk_size(3200, 4), 100);
        assert_eq!(default_chunk_size(100_000, 4), 3125);
        // Clamped above…
        assert_eq!(default_chunk_size(10_000_000, 4), MAX_AUTO_CHUNK);
        // …and `workers == 0` does not divide by zero.
        assert_eq!(default_chunk_size(80, 0), 10);
    }
}
