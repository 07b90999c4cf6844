//! Minimal scoped-thread fan-out used by the DIME⁺ engine.
//!
//! DIME⁺ has one implementation, sharded through these helpers at every
//! worker count: with one worker they run the closure inline on the
//! calling thread, spawning nothing, so the one-worker engine is the
//! sharded engine with no threading cost.
//!
//! The engine only needs two shapes — an order-preserving map (over
//! indices or owned items) and a plain worker fan-out — so this wraps
//! `std::thread::scope` directly instead of pulling in a work-stealing
//! runtime: the work units (one entity row, one residue class of
//! entities, one partition) are already coarse and balanced, so contiguous
//! chunking is within noise of stealing, and the dependency footprint
//! stays zero.

/// Inputs below this size run on one worker: spawning a scope of threads
/// costs on the order of 0.1 ms, which dwarfs the work of a few dozen
/// items and would dominate the many small groups of a batch run.
pub(crate) const SEQ_CUTOFF: usize = 64;

/// Resolves a `threads` knob: `0` means one worker per available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        threads
    }
}

/// Maps `f` over `0..n` on up to `threads` scoped workers, preserving
/// index order in the result: [`par_map_owned`] over `n` unit items.
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_owned(vec![(); n], threads, |i, ()| f(i))
}

/// Maps `f(index, item)` over owned `items` on up to `threads` scoped
/// workers, preserving order in the result. Each worker consumes one
/// contiguous run of `items`, so an item is dropped as soon as `f` is done
/// with it rather than when the whole map is. Falls back to a plain
/// sequential map for a single worker (or tiny inputs), so callers can use
/// one code path.
///
/// A panic in any worker propagates to the caller after all workers have
/// been joined by the scope.
pub(crate) fn par_map_owned<T, U, F>(mut items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n < SEQ_CUTOFF {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads);
    // Runs of `chunk` items, split off the back, then put in order.
    let mut runs: Vec<(usize, Vec<T>)> = Vec::with_capacity(threads);
    while items.len() > chunk {
        let start = (items.len() - 1) / chunk * chunk;
        runs.push((start, items.split_off(start)));
    }
    runs.push((0, items));
    runs.reverse();
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(runs.len());
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = runs
            .into_iter()
            .map(|(start, run)| {
                scope.spawn(move || {
                    run.into_iter().enumerate().map(|(i, t)| f(start + i, t)).collect::<Vec<U>>()
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("parallel worker panicked"));
        }
    });
    parts.into_iter().flatten().collect()
}

/// Runs `f(worker_index)` once per worker and concatenates the returned
/// buffers in worker order — the fan-out used for the positive phase's
/// gather-and-verify pass, where each worker walks its own residue class
/// of entities, and for flagging runs of partitions.
pub(crate) fn par_shards<T, F>(threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    let threads = threads.max(1);
    if threads <= 1 {
        return f(0);
    }
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let f = &f;
            handles.push(scope.spawn(move || f(t)));
        }
        for h in handles {
            parts.push(h.join().expect("parallel worker panicked"));
        }
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let seq: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(par_map(97, threads, |i| i * 3), seq, "threads = {threads}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_map_owned_preserves_order() {
        let seq: Vec<usize> = (0..97).map(|i| i * 3 + i).collect();
        for threads in [1, 2, 5, 16] {
            let items: Vec<usize> = (0..97).map(|i| i * 3).collect();
            let got = par_map_owned(items, threads, |i, x| x + i);
            assert_eq!(got, seq, "threads = {threads}");
        }
        assert!(par_map_owned(Vec::<usize>::new(), 4, |_, x| x).is_empty());
    }

    #[test]
    fn par_shards_concatenates_in_worker_order() {
        let got = par_shards(4, |t| vec![t, t]);
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(par_shards(1, |t| vec![t]), vec![0]);
    }

    #[test]
    fn resolve_threads_maps_zero_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
