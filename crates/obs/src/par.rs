//! The workspace's one fan-out: workers claim the indices of `0..items`
//! off a shared counter until none is left.
//!
//! Which worker computes an item depends on scheduling; *what* is
//! computed never does — every index goes to exactly one worker, and a
//! caller whose per-item work is a function of the index alone (and
//! whose merge is order-insensitive, or that re-orders by index as
//! [`par_map`] does) gets the same result on any number of threads.
//!
//! One thread is not a special case: it is the same worker closure run
//! on the calling thread, claiming `0, 1, 2, …` in order — that *is* the
//! serial path, so serial ≡ parallel is one body run twice. With more
//! than one thread every worker is a scoped `std` thread and the caller
//! only joins. Spans are thread-local, so a pool worker's spans start a
//! path of their own; this module is the one place to re-parent them.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads to use when the caller has no better idea: the
/// machine's available parallelism, 1 if it cannot be read.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One worker's view of the shared cursor: an iterator that yields each
/// index of `0..items` to exactly one of the workers holding it.
#[derive(Debug)]
pub struct Claims<'a> {
    cursor: &'a AtomicUsize,
    items: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Relaxed: the cursor publishes nothing but itself; what workers
        // compute reaches the caller through the scoped-thread join.
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        (idx < self.items).then_some(idx)
    }
}

/// Run `worker` on `min(threads, items).max(1)` workers sharing one
/// [`Claims`] cursor over `0..items`, and return what each worker
/// returned (in no particular order).
///
/// One worker runs on the calling thread and claims in index order;
/// more run on scoped threads while the caller joins. A worker panic is
/// re-raised on the caller with its own payload once every worker has
/// stopped.
pub fn par_claim<R, W>(items: usize, threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(Claims<'_>) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let run = || {
        worker(Claims {
            cursor: &cursor,
            items,
        })
    };
    let threads = threads.min(items).max(1);
    if threads == 1 {
        return vec![run()];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(run)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

/// `f(0), f(1), …, f(items - 1)` computed on up to `threads` workers
/// and returned in index order, whichever worker computed what.
pub fn par_map<T, F>(items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut indexed: Vec<(usize, T)> = par_claim(items, threads, |claims| {
        claims.map(|idx| (idx, f(idx))).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    indexed.sort_unstable_by_key(|&(idx, _)| idx);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn claims_partition_the_items_for_any_thread_count() {
        for threads in [0usize, 1, 2, 3, 8, 64] {
            for items in [0usize, 1, 2, 7, 100] {
                let claimed = par_claim(items, threads, |claims| claims.collect::<Vec<_>>());
                assert_eq!(
                    claimed.len(),
                    threads.min(items).max(1),
                    "workers for {threads} threads over {items} items"
                );
                let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..items).collect::<Vec<_>>(), "{threads} x {items}");
            }
        }
    }

    #[test]
    fn one_thread_is_the_caller_claiming_in_order() {
        let caller = std::thread::current().id();
        let claimed = par_claim(7, 1, |claims| {
            assert_eq!(std::thread::current().id(), caller);
            claims.collect::<Vec<_>>()
        });
        assert_eq!(claimed, vec![(0..7).collect::<Vec<_>>()]);
        // More threads than items is still one worker per item at most,
        // and none of them is the caller.
        let barrier = Barrier::new(3);
        let ids = par_claim(3, 8, |claims| {
            barrier.wait();
            (std::thread::current().id(), claims.count())
        });
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&(id, _)| id != caller));
        assert_eq!(ids.iter().map(|&(_, n)| n).sum::<usize>(), 3);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        for threads in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_claim(16, threads, |claims| {
                    for idx in claims {
                        if idx == 5 {
                            std::panic::panic_any(format!("item {idx} is cursed"));
                        }
                    }
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 5 is cursed"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_map_returns_index_order() {
        for threads in [1usize, 2, 5] {
            let squares = par_map(37, threads, |i| i * i);
            assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }
}
