//! Deterministic work splitting across OS threads.
//!
//! The offline build has no `rayon`, so heavy loops fan out with
//! [`std::thread::scope`] instead: contiguous chunks of the output buffer are
//! handed to short-lived worker threads. Splits are purely a function of the
//! input size and thread count — never of timing — so results are
//! reproducible run to run.
//!
//! The thread count defaults to [`std::thread::available_parallelism`] and
//! can be pinned with the `TINYNN_THREADS` environment variable (`1` forces
//! the sequential path everywhere).

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// `true` on threads that are already workers of an enclosing parallel
    /// region (ours or a caller's): nested fan-out would oversubscribe the
    /// cores and defeat thread-local buffer reuse, so such threads stay
    /// sequential.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a parallel-region worker until the returned
/// guard is dropped; while marked, [`thread_count_for`] answers `1` so any
/// nested tinynn fan-out runs inline.
///
/// Callers that spread tinynn work across their own threads (e.g. the
/// locator's sliding-window shards) should hold one of these per worker.
pub fn serial_region() -> SerialRegionGuard {
    let prev = IN_WORKER.with(|f| f.replace(true));
    SerialRegionGuard { prev }
}

/// RAII guard of [`serial_region`]; restores the previous marking on drop.
#[must_use = "the serial region ends when the guard is dropped"]
pub struct SerialRegionGuard {
    prev: bool,
}

impl Drop for SerialRegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|f| f.set(prev));
    }
}

/// Parses a `TINYNN_THREADS` value: a positive thread count, or a reason
/// the override cannot be honoured.
fn parse_thread_override(value: &str) -> Result<usize, &'static str> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("zero threads is impossible; use 1 to force sequential"),
        Ok(n) => Ok(n),
        Err(_) => Err("not an unsigned integer"),
    }
}

/// Maximum threads the library will ever use.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        if let Ok(v) = std::env::var("TINYNN_THREADS") {
            match parse_thread_override(&v) {
                Ok(n) => return n,
                Err(why) => {
                    // An operator who set the variable expects it to act;
                    // ignoring it silently would hide a deployment typo.
                    eprintln!(
                        "tinynn: ignoring TINYNN_THREADS={v:?} ({why}); \
                         falling back to available parallelism"
                    );
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Picks a thread count for a loop of `items` units costing `flops` total:
/// `1` (sequential) unless the work exceeds `min_flops`, there is more than
/// one item and one core, and the current thread is not itself already a
/// parallel-region worker.
pub fn thread_count_for(items: usize, flops: usize, min_flops: usize) -> usize {
    if flops < min_flops || IN_WORKER.with(|f| f.get()) {
        return 1;
    }
    max_threads().min(items).max(1)
}

/// Splits `out` into per-item chunks of `item_len` and processes contiguous
/// runs of items on up to `threads` scoped threads.
///
/// `f` is called as `f(item_index, item_chunk)` for every item; with
/// `threads <= 1` it runs inline in item order. The assignment of items to
/// threads is deterministic.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `item_len`.
pub fn for_each_item_mut<F>(out: &mut [f32], item_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    for_each_item_with_scratch(out, item_len, threads, &mut [], 0, |i, chunk, _| f(i, chunk));
}

/// Number of workers [`for_each_item_with_scratch`] runs for `items` items
/// on up to `threads` threads — the number of `scratch_len` slices its
/// `scratch` buffer must hold.
pub(crate) fn worker_count(items: usize, threads: usize) -> usize {
    if threads <= 1 || items <= 1 {
        1
    } else {
        items.div_ceil(items.div_ceil(threads.min(items)))
    }
}

/// [`for_each_item_mut`] with per-worker scratch: each worker owns one
/// `scratch_len` slice of `scratch` for the whole run of items it
/// processes, so per-item working buffers stay hot in cache and no worker
/// allocates. `f` is called as `f(item_index, item_chunk, worker_scratch)`.
///
/// The scratch is handed over as-is between items: an item must not depend
/// on what the previous item of the same worker left there beyond what `f`
/// itself maintains.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `item_len`, or `scratch`
/// holds fewer than [`worker_count`] slices of `scratch_len`.
pub(crate) fn for_each_item_with_scratch<F>(
    out: &mut [f32],
    item_len: usize,
    threads: usize,
    scratch: &mut [f32],
    scratch_len: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    assert!(item_len > 0, "item_len must be non-zero");
    assert_eq!(out.len() % item_len, 0, "output not a multiple of item_len");
    let items = out.len() / item_len;
    let workers = worker_count(items, threads);
    assert!(scratch.len() >= workers * scratch_len, "scratch must hold {workers} worker slices");
    if workers == 1 {
        let scratch = &mut scratch[..scratch_len];
        for (i, chunk) in out.chunks_mut(item_len).enumerate() {
            f(i, chunk, scratch);
        }
        return;
    }
    let per_thread = items.div_ceil(threads.min(items));
    std::thread::scope(|scope| {
        let mut rest = scratch;
        for (run_idx, run) in out.chunks_mut(per_thread * item_len).enumerate() {
            let (scratch, tail) = std::mem::take(&mut rest).split_at_mut(scratch_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                let _serial = serial_region();
                for (offset, chunk) in run.chunks_mut(item_len).enumerate() {
                    f(run_idx * per_thread + offset, chunk, scratch);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let item_len = 7;
        let items = 23;
        let mut seq = vec![0.0f32; item_len * items];
        let mut par = vec![0.0f32; item_len * items];
        let fill = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 100 + j) as f32;
            }
        };
        for_each_item_mut(&mut seq, item_len, 1, fill);
        for_each_item_mut(&mut par, item_len, 4, fill);
        assert_eq!(seq, par);
    }

    #[test]
    fn each_worker_owns_its_scratch() {
        // Every worker counts its items in its own scratch slot; the slots
        // must add up to the item count and the output must not depend on
        // the split.
        let (items, scratch_len) = (11usize, 3usize);
        for threads in 1..=5 {
            let workers = worker_count(items, threads);
            let mut scratch = vec![0.0f32; workers * scratch_len];
            let mut out = vec![0.0f32; items * 2];
            for_each_item_with_scratch(
                &mut out,
                2,
                threads,
                &mut scratch,
                scratch_len,
                |i, c, s| {
                    assert_eq!(s.len(), scratch_len);
                    s[0] += 1.0;
                    c.fill(i as f32);
                },
            );
            let counted: f32 = scratch.chunks(scratch_len).map(|s| s[0]).sum();
            assert_eq!(counted, items as f32, "threads={threads}");
            assert!(out.chunks(2).enumerate().all(|(i, c)| c == [i as f32; 2]));
        }
    }

    #[test]
    fn covers_every_item_exactly_once() {
        let mut out = vec![0.0f32; 12];
        for_each_item_mut(&mut out, 3, 3, |_i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn thread_count_gates_on_flops() {
        assert_eq!(thread_count_for(8, 10, 1000), 1);
        assert!(thread_count_for(8, 10_000, 1000) >= 1);
    }

    #[test]
    fn serial_region_disables_nested_fan_out() {
        {
            let _guard = serial_region();
            assert_eq!(thread_count_for(8, 1 << 30, 1), 1);
            // Nested guards restore correctly.
            {
                let _inner = serial_region();
            }
            assert_eq!(thread_count_for(8, 1 << 30, 1), 1);
        }
        // Dropping the guard restores the unrestricted count.
        assert_eq!(thread_count_for(8, 1 << 30, 1), max_threads().min(8));
    }

    #[test]
    fn workers_are_marked_serial() {
        // Each spawned worker must see the serial flag so nested fan-out
        // stays inline (recorded as 1.0 = serial, 2.0 = would fan out).
        let mut out = vec![0.0f32; 4];
        for_each_item_mut(&mut out, 1, 4, |_i, chunk| {
            chunk[0] = if thread_count_for(8, 1 << 30, 1) == 1 { 1.0 } else { 2.0 };
        });
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "multiple of item_len")]
    fn misaligned_output_panics() {
        let mut out = vec![0.0f32; 10];
        for_each_item_mut(&mut out, 3, 1, |_, _| {});
    }

    #[test]
    fn thread_override_parse_paths() {
        // Valid counts pass through, whitespace-tolerantly.
        assert_eq!(parse_thread_override("1"), Ok(1));
        assert_eq!(parse_thread_override(" 8\n"), Ok(8));
        // Zero and malformed values are rejected (and `max_threads` then
        // warns and falls back to available parallelism rather than
        // silently pinning to one thread).
        assert!(parse_thread_override("0").is_err());
        assert!(parse_thread_override("").is_err());
        assert!(parse_thread_override("four").is_err());
        assert!(parse_thread_override("-2").is_err());
        assert!(parse_thread_override("3.5").is_err());
    }
}
