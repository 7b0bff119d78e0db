//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal parallel-iterator layer with rayon's *names* and
//! *semantics* for exactly the call patterns the workspace uses:
//!
//! * `slice.par_iter()` / `par_iter_mut()` / `par_chunks_mut(n)`
//! * `range.into_par_iter()` / `vec.into_par_iter()`
//! * adapters: `zip`, `enumerate`, `map`
//! * terminals: `for_each`, `collect::<Vec<_>>()`
//!
//! Unlike rayon there is no work-stealing pool: each call site splits its
//! items into contiguous index-order chunks (one per available core,
//! capped by item count) and runs the first on the calling thread, the
//! rest on `std::thread::scope` threads. Results are gathered back in
//! input order, so `map().collect()` is order-preserving exactly like
//! rayon's indexed parallel iterators.

use std::ops::Range;
use std::sync::OnceLock;

/// Threads a parallel call may use: the host's available parallelism,
/// read once per process. `available_parallelism` reads cgroup files on
/// Linux: 12–23 µs a call on a 2-vCPU VM, about what a scoped spawn and
/// join costs there. rayon's name for its pool size.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Split `items` into at most `nt` contiguous chunks of near-equal size.
fn split<T>(mut items: Vec<T>, nt: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let nt = nt.clamp(1, n.max(1));
    let chunk = n.div_ceil(nt).max(1);
    let mut out = Vec::with_capacity(nt);
    while !items.is_empty() {
        let tail = items.split_off(chunk.min(items.len()));
        out.push(items);
        items = tail;
    }
    out
}

/// Run `work` on every chunk: `chunks[1..]` on scoped threads, `chunks[0]`
/// on the calling thread meanwhile (it would only wait on the join), and
/// gather the results in input order.
fn run_chunks<T, R, W>(chunks: Vec<Vec<T>>, work: &W) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(Vec<T>) -> Vec<R> + Sync,
{
    let mut chunks = chunks.into_iter();
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.map(|chunk| s.spawn(move || work(chunk))).collect();
        let mut gathered = work(first);
        for h in handles {
            gathered.extend(h.join().expect("rayon-shim worker panicked"));
        }
        gathered
    })
}

/// Map every item through `f` on scoped threads, preserving input order.
fn run_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 || current_num_threads() == 1 {
        return items.into_iter().map(f).collect();
    }
    run_chunks(split(items, current_num_threads()), &|chunk: Vec<T>| {
        chunk.into_iter().map(f).collect()
    })
}

/// Like [`run_map`], but each worker thread builds one `init()` state and
/// threads it through every item it processes (rayon's `map_init`
/// contract: the state is per-worker, reused across items, never shared).
fn run_map_init<T, S, R, INIT, F>(items: Vec<T>, init: &INIT, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    if items.len() <= 1 || current_num_threads() == 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }
    run_chunks(split(items, current_num_threads()), &|chunk: Vec<T>| {
        let mut state = init();
        chunk.into_iter().map(|t| f(&mut state, t)).collect()
    })
}

/// An eager "parallel iterator": the items are materialized up front
/// (they are references, chunk slices, or indices — cheap), and the
/// terminal operation fans them out across threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair up with another parallel iterator (truncates to the shorter).
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attach the input index to every item.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Lazily record a per-item transform; executed by the terminal op.
    pub fn map<R, F>(self, f: F) -> MapIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MapIter {
            items: self.items,
            f,
        }
    }

    /// rayon's `map_init`: each worker thread creates one `init()` value
    /// and hands `f` a mutable reference to it for every item that worker
    /// processes — per-worker scratch state without per-item allocation.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> MapInitIter<T, INIT, F>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        MapInitIter {
            items: self.items,
            init,
            f,
        }
    }

    /// Run `f` on every item across threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_map(self.items, &|t| f(t));
    }
}

/// A `ParIter` with a pending `map` transform.
pub struct MapIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> MapIter<T, F> {
    /// Execute the map across threads and collect in input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        run_map(self.items, &self.f).into_iter().collect()
    }

    /// Execute the map across threads, discarding results.
    pub fn for_each<R, G>(self, g: G)
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        G: Fn(R) + Sync,
    {
        let f = &self.f;
        run_map(self.items, &|t| g(f(t)));
    }
}

/// A `ParIter` with a pending `map_init` transform (per-worker state).
pub struct MapInitIter<T, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T: Send, INIT, F> MapInitIter<T, INIT, F> {
    /// Execute across threads (one state per worker) and collect in
    /// input order.
    pub fn collect<C, S, R>(self) -> C
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
        C: FromIterator<R>,
    {
        run_map_init(self.items, &self.init, &self.f)
            .into_iter()
            .collect()
    }

    /// Execute across threads, discarding results.
    pub fn for_each<S, R, G>(self, g: G)
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
        G: Fn(R) + Sync,
    {
        let f = &self.f;
        run_map_init(self.items, &self.init, &|s: &mut S, t| g(f(s, t)));
    }
}

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSliceRef<T: Sync> {
    fn par_iter(&self) -> ParIter<&T>;
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSliceRef<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// `into_par_iter` on owning collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, MapInitIter, MapIter, ParIter, ParallelSliceMut, ParallelSliceRef,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_zip_enumerate() {
        let mut c = [0usize; 12];
        let adds = [10usize, 20, 30];
        c.par_chunks_mut(4)
            .zip(adds.par_iter())
            .enumerate()
            .for_each(|(i, (chunk, &a))| {
                for v in chunk.iter_mut() {
                    *v = a + i;
                }
            });
        assert_eq!(c[0], 10);
        assert_eq!(c[4], 21);
        assert_eq!(c[8], 32);
    }

    #[test]
    fn into_par_iter_range() {
        let squares: Vec<usize> = (0..50usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[7], 49);
        assert_eq!(squares.len(), 50);
    }

    #[test]
    fn par_iter_mut_for_each() {
        let mut v = vec![1.0f64; 64];
        v.par_iter_mut().for_each(|x| *x *= 3.0);
        assert!(v.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn map_init_reuses_state_per_worker_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let v: Vec<usize> = (0..512).collect();
        let out: Vec<usize> = v
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::with_capacity(8)
                },
                |scratch, x| {
                    scratch.push(x); // state is genuinely mutable
                    x * 2
                },
            )
            .collect();
        assert_eq!(out, (0..512).map(|x| x * 2).collect::<Vec<_>>());
        // one init per worker thread, not per item
        assert!(inits.load(Ordering::Relaxed) <= crate::current_num_threads());
    }

    #[test]
    fn the_first_chunk_runs_on_the_calling_thread() {
        use std::thread::{current, ThreadId};
        let ran_on: Vec<ThreadId> = vec![0u8, 1]
            .into_par_iter()
            .map_init(|| current().id(), |id, _| *id)
            .collect();
        assert_eq!(ran_on[0], current().id());
        if crate::current_num_threads() > 1 {
            assert_ne!(ran_on[1], current().id(), "the second chunk is spawned");
        }
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        (0..0usize).into_par_iter().for_each(|_| panic!("no items"));
    }
}
