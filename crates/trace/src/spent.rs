//! A per-thread stash of one spent job block.
//!
//! A consumer that is done with a `Vec<Job>` it was handed (the catalog,
//! once a block is encoded) may [`stash`] it instead of dropping it; the
//! next producer on the same thread may [`take`] it and write its jobs
//! over the old ones in place, so each job's name `String` and path
//! `Vec`s keep their heap capacity from block to block instead of being
//! allocated and freed per job. The stash is per thread on purpose: the
//! allocations are reused by the thread that made them (see `JobDraft`
//! in swim-workloadgen for what crossing threads costs).
//!
//! A `Cell` rather than a `RefCell`: the block is moved in and out
//! whole, so no borrow can be held across a call and none can panic.

use crate::Job;
use std::cell::Cell;

thread_local! {
    static SPENT: Cell<Vec<Job>> = const { Cell::new(Vec::new()) };
}

/// Keep `block` for this thread's next [`take`], dropping whatever was
/// kept before.
pub fn stash(block: Vec<Job>) {
    SPENT.with(|spent| spent.set(block));
}

/// The block last stashed on this thread, leaving the stash empty; an
/// empty `Vec` if there is none.
pub fn take() -> Vec<Job> {
    SPENT.with(Cell::take)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobBuilder;

    #[test]
    fn a_stashed_block_is_taken_once_and_only_on_its_thread() {
        let block = vec![JobBuilder::new(7).name("spent").build_unchecked()];
        stash(block.clone());
        let elsewhere = std::thread::spawn(take).join().expect("thread ran");
        assert!(elsewhere.is_empty());
        assert_eq!(take(), block);
        assert!(take().is_empty());
    }
}
