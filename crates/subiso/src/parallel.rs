//! Scoped-thread data parallelism for candidate scans.
//!
//! The natural dependency here would be `rayon`, but this workspace builds
//! in a registry-less environment, so the one primitive the scans need is
//! implemented directly on `std::thread::scope` (stable since 1.63):
//! [`parallel_map_indexed`] — evaluate `f(0..n)` across worker threads and
//! return the results **in index order**, which is what keeps Method M's
//! answer bitsets and the processor's hit lists deterministic regardless of
//! thread scheduling.
//!
//! Work distribution is dynamic: workers claim small index batches from a
//! shared atomic cursor, so one expensive candidate (a near-miss sub-iso
//! test can be orders of magnitude slower than a hit) does not stall a
//! statically assigned chunk behind it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Indices claimed per atomic fetch; amortizes cursor contention without
/// hurting balance (scans are thousands of items, batches stay small).
const BATCH: usize = 16;

/// Evaluates `f(i)` for `i in 0..n` on up to `threads` scoped workers and
/// returns the results ordered by index. Falls back to a plain sequential
/// map when `threads <= 1` or `n` is small enough that spawning would cost
/// more than it saves.
///
/// **Panic isolation:** a panic inside `f(i)` is contained per item — it
/// cannot take down the worker's whole batch or the scope. Panicked
/// indices are retried once, sequentially, on the calling thread; a second
/// panic for the same index propagates to the caller (a deterministic
/// failure is a real bug, not a transient fault). This keeps the "full
/// `Vec`, index order" contract intact under one-shot faults.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n.div_ceil(BATCH));
    if workers <= 1 || n == 0 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let fref = &f;
    let cref = &cursor;
    let mut per_worker: Vec<Vec<(usize, Option<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start = cref.fetch_add(BATCH, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + BATCH).min(n) {
                            // contain per-item panics; `None` marks the
                            // index for the sequential retry below
                            let item = catch_unwind(AssertUnwindSafe(|| fref(i))).ok();
                            out.push((i, item));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // worker bodies catch all unwinds per item, so a join failure
            // is unreachable in practice
            .map(|h| h.join().expect("scan worker panicked outside item"))
            .collect()
    });
    let mut merged: Vec<(usize, Option<T>)> = Vec::with_capacity(n);
    for chunk in &mut per_worker {
        merged.append(chunk);
    }
    merged.sort_unstable_by_key(|&(i, _)| i);
    merged
        .into_iter()
        .map(|(i, item)| match item {
            Some(t) => t,
            // retry once on the caller thread; a repeat panic propagates
            None => f(i),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1usize, 2, 4, 8] {
            for n in [0usize, 1, 5, 16, 17, 100, 1000] {
                let got = parallel_map_indexed(n, threads, |i| i * 3);
                let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(got, expected, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn one_shot_item_panic_is_retried() {
        use std::sync::atomic::AtomicBool;
        // item 23 panics exactly once; the retry pass must heal it and the
        // result vector must come back complete and ordered
        let fired = AtomicBool::new(false);
        crate::quiet_injected_panics();
        let got = parallel_map_indexed(64, 4, |i| {
            if i == 23 && !fired.swap(true, Ordering::SeqCst) {
                std::panic::panic_any(crate::InjectedFault("item 23".into()));
            }
            i * 2
        });
        let expected: Vec<usize> = (0..64).map(|i| i * 2).collect();
        assert_eq!(got, expected);
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn uneven_work_is_balanced() {
        // items of wildly different cost still produce ordered results
        let got = parallel_map_indexed(64, 4, |i| {
            if i % 7 == 0 {
                // an artificially expensive item
                (0..20_000u64).sum::<u64>().wrapping_add(i as u64)
            } else {
                i as u64
            }
        });
        for (i, v) in got.iter().enumerate() {
            let expected = if i % 7 == 0 {
                (0..20_000u64).sum::<u64>().wrapping_add(i as u64)
            } else {
                i as u64
            };
            assert_eq!(*v, expected);
        }
    }
}
