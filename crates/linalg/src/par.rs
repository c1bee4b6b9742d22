//! The workspace's one data-parallel fan-out.
//!
//! Every data-parallel site (the matmul kernels here, the crossbar's
//! tiled evaluation backend, the MCMC chain runner, the experiment
//! binaries) splits its output into contiguous runs and hands each run
//! to a scoped worker thread through [`for_each_run`]. Workers only
//! choose *which* thread computes an element, never how it is computed,
//! so results are bit-identical at any thread count.
//!
//! The module emits no observability events: `xbar-obs` scopes are
//! thread-local, so callers record their events on the calling thread
//! before or after the fan-out.

use std::sync::OnceLock;

/// The host's available parallelism, looked up once per process.
pub fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Resolves a thread request: `0` means [`host_threads`], anything
/// else is taken as given.
pub fn resolve(threads: usize) -> usize {
    if threads == 0 {
        host_threads()
    } else {
        threads
    }
}

/// Runs `f(offset, run)` over at most `threads` contiguous runs of
/// `data` (`threads == 0` resolves to [`host_threads`]), where `offset`
/// is the index of `run[0]` within `data`.
///
/// Runs are `data.len().div_ceil(threads)` elements long (the last may
/// be shorter). With one run the call is inline on the calling thread;
/// otherwise each run gets its own scoped thread. A worker panic is
/// re-raised on the calling thread with its original payload.
pub fn for_each_run<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = resolve(threads).min(data.len());
    if threads <= 1 {
        f(0, data);
        return;
    }
    let run_len = data.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks_mut(run_len)
            .enumerate()
            .map(|(i, run)| scope.spawn(move || f(i * run_len, run)))
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_maps_zero_to_the_host_count() {
        assert!(host_threads() >= 1);
        assert_eq!(resolve(0), host_threads());
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(7), 7);
    }

    #[test]
    fn every_index_is_visited_once_at_its_own_offset() {
        for len in 0..=17usize {
            for threads in 0..=9usize {
                let mut visits = vec![(0usize, usize::MAX); len];
                for_each_run(&mut visits, threads, |offset, run| {
                    for (j, v) in run.iter_mut().enumerate() {
                        v.0 += 1;
                        v.1 = offset + j;
                    }
                });
                for (i, &(count, seen)) in visits.iter().enumerate() {
                    assert_eq!(count, 1, "len={len} threads={threads} index={i}");
                    assert_eq!(seen, i, "len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn results_do_not_depend_on_the_thread_count() {
        let compute = |threads: usize| {
            let mut out = vec![0.0f64; 101];
            for_each_run(&mut out, threads, |offset, run| {
                for (j, o) in run.iter_mut().enumerate() {
                    let i = (offset + j) as f64;
                    *o = (1..=20).map(|k| (i * k as f64).sin()).sum();
                }
            });
            out
        };
        let reference = compute(1);
        for threads in [0usize, 2, 3, 8, 101, 500] {
            assert_eq!(compute(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn a_worker_panic_propagates_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 8];
            for_each_run(&mut data, 4, |offset, _| {
                if offset == 4 {
                    panic!("worker at offset {offset} failed");
                }
            });
        })
        .expect_err("the worker panic must reach the caller");
        let message = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(message, "worker at offset 4 failed");
    }
}
