//! The exchange: the only code in the executor that starts threads.
//!
//! A region of degree `n > 1` hands this module closures and gets
//! parallelism back in two shapes. [`scoped`] runs one closure on `n`
//! workers to completion — a phase barrier, used for a hash join's build
//! pipeline and its partition merge, which must finish before anything
//! probes. [`Exchange`] runs `n` detached workers that stream batches to
//! the one consumer over a bounded channel, so a parallel region obeys
//! the demand-driven `open`/`next_batch`/`close` contract of every other
//! operator: workers block when the consumer falls behind, exactly as
//! Volcano's exchange operator encapsulates parallelism behind an
//! iterator. What the workers *do* — pop morsels, decode, run the stage
//! chain, feed a sink — is [`crate::fused::FusedRegion`]'s one cursor
//! loop, the same at every degree; a region of degree 1 calls it inline
//! and never comes here.
//!
//! Worker panics (including injected chaos failures) are caught at the
//! worker boundary and re-raised on the query thread with the worker's
//! own message — never a deadlock, never a silently truncated result.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{bounded, Receiver};

use super::MorselStats;
use crate::batch::Batch;

/// Run `work(w)` for `w` in `0..n` on scoped workers and return their
/// results once all have finished. Every worker is joined explicitly so
/// a panicking worker's *original* payload (e.g. an injected chaos
/// failure) is re-raised here after the survivors drain, instead of the
/// scope's generic panic message.
pub(crate) fn scoped<T: Send>(
    n: usize,
    stats: &MorselStats,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    thread::scope(|sc| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                stats.record_thread();
                let work = &work;
                sc.spawn(move || work(w))
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(t) => done.push(t),
                Err(p) => {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        done
    })
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// A pool of detached workers streaming batches to one consumer, in
/// whatever order they produce them.
pub(crate) struct Exchange {
    rx: Option<Receiver<Result<Batch, String>>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Exchange {
    /// Start `n` workers. Worker `w` runs `work(w, emit)` and hands each
    /// finished batch to `emit`, which blocks while the consumer is `2n`
    /// batches behind and answers `false` once the consumer is gone.
    pub(crate) fn spawn(
        n: usize,
        stats: &MorselStats,
        work: impl Fn(usize, &mut dyn FnMut(Batch) -> bool) + Send + Sync + 'static,
    ) -> Self {
        let (tx, rx) = bounded::<Result<Batch, String>>(n * 2);
        let work = Arc::new(work);
        let workers = (0..n)
            .map(|w| {
                stats.record_thread();
                let (work, tx) = (work.clone(), tx.clone());
                thread::spawn(move || {
                    let run = || work(w, &mut |b| tx.send(Ok(b)).is_ok());
                    if let Err(p) = catch_unwind(AssertUnwindSafe(run)) {
                        // Consumer gone is fine — the panic dies with us.
                        let _ = tx.send(Err(panic_message(p.as_ref())));
                    }
                })
            })
            .collect();
        Exchange {
            rx: Some(rx),
            workers,
        }
    }

    /// Receive the next batch any worker produced; `false` once every
    /// worker has finished. A worker's panic is re-raised here, on the
    /// consumer's thread, with the worker's message.
    pub(crate) fn recv(&mut self, out: &mut Batch) -> bool {
        let Some(rx) = &self.rx else { return false };
        match rx.recv() {
            Ok(Ok(b)) => {
                *out = b;
                true
            }
            Ok(Err(msg)) => {
                self.shutdown();
                panic!("morsel worker failed: {msg}");
            }
            // Every sender dropped: the pool drained all morsels.
            Err(_) => {
                self.shutdown();
                false
            }
        }
    }

    /// Tear down the pool: dropping the receiver first fails all pending
    /// sends, so blocked workers exit before we join them.
    fn shutdown(&mut self) {
        self.rx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Exchange {
    fn drop(&mut self) {
        self.shutdown();
    }
}
