//! Deterministic parallel execution of independent runs.
//!
//! Simulation workloads are full of *embarrassingly parallel* outer
//! loops whose iterations share nothing mutable: annealer restarts,
//! candidate-plan scores, fault-sweep scenarios, durability-sweep grid
//! cells, benchmark repetitions. [`run_indexed`] executes such a loop on
//! a small work-stealing pool of scoped threads (no extra dependencies,
//! no 'static bounds) while keeping the *results* — and therefore
//! everything computed from them — independent of the worker count and
//! of OS scheduling.
//!
//! ## Determinism contract
//!
//! * Each task is identified by its index `0..n` and must derive any
//!   randomness from that index (e.g. a per-run seed mixed from the
//!   index), never from shared mutable state or the worker thread.
//! * Tasks are claimed from a shared atomic counter (work-stealing in
//!   the cheapest possible form: idle workers steal the next index), so
//!   *which* thread runs a task is scheduling-dependent — but the task's
//!   inputs are not.
//! * Results are merged into a `Vec` addressed by task index, so the
//!   returned order is always `0..n` regardless of completion order.
//!
//! Under this contract `run_indexed(w, n, f)` returns bit-identical
//! output for every `w`, including `w == 1`, which is exercised by the
//! `par_determinism` proptests (including under active fault plans).
//!
//! Panics in a task propagate: the pool joins every worker before
//! returning and re-raises the first panic it sees.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count matching the machine's available parallelism (at least
/// one). The pool never helps when `n == 1`; callers can pass this
/// directly to [`run_indexed`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(0), f(1), …, f(n-1)` on up to `workers` scoped threads and
/// return the results in index order. With `workers <= 1` (or `n <= 1`)
/// the calls happen inline on the caller's thread; otherwise idle
/// workers claim indices from a shared counter until none remain.
///
/// `f` must uphold the module-level determinism contract: its output
/// may depend only on the index it is given.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let w = workers.min(n).max(1);
    if w == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let f = &f;
    let next = &next;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(w);
        for _ in 0..w {
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    done.push((i, f(i)));
                }
                done
            }));
        }
        for h in handles {
            // Propagates the first worker panic, after every thread in
            // the scope has been joined.
            for (i, v) in h.join().expect("parallel worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// [`run_indexed`] for *stateful* tasks: run `f(i, &mut states[i])` for
/// every index on up to `workers` scoped threads and return the results
/// in index order. Each state is visited exactly once, so tasks get
/// exclusive `&mut` access to their own slot while the batch as a whole
/// fans out — the shape of a fleet scheduler dispatching per-tenant
/// epochs, where every tenant owns mutable session state.
///
/// The determinism contract is [`run_indexed`]'s, extended to state:
/// `f`'s output and the state it leaves behind may depend only on the
/// index and the state it was handed, never on worker count or claim
/// order. Under that contract both the returned `Vec` and the final
/// `states` are bit-identical for every `workers`, including `1`.
///
/// With more than one worker, each slot is wrapped in an uncontended
/// [`Mutex`] (one claimant per index by construction) and the batch runs
/// on [`run_indexed`]'s pool, so the synchronization cost is a single
/// lock/unlock pair per task. With one worker the states are visited
/// inline, without locks.
pub fn run_indexed_mut<S, T, F>(workers: usize, states: &mut [S], f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if workers.min(states.len()) <= 1 {
        return states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let cells: Vec<Mutex<&mut S>> = states.iter_mut().map(Mutex::new).collect();
    run_indexed(workers, cells.len(), |i| {
        let mut state = cells[i].lock().expect("unpoisoned: one claimant per index");
        f(i, &mut state)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_index_order_for_any_worker_count() {
        let expect: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for w in [1, 2, 3, 8, 64] {
            let got = run_indexed(w, 97, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expect, "workers={w}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn stateful_runs_mutate_every_slot_once_for_any_worker_count() {
        // Each task folds its index into its own state and returns the
        // new value; results and final states must match the sequential
        // loop for every worker count.
        let expect_states: Vec<u64> = (0..61u64).map(|i| i * 1000 + i * 7 + 1).collect();
        for w in [1, 2, 3, 8, 64] {
            let mut states: Vec<u64> = (0..61u64).map(|i| i * 1000).collect();
            let got = run_indexed_mut(w, &mut states, |i, s| {
                *s += i as u64 * 7 + 1;
                *s
            });
            assert_eq!(states, expect_states, "workers={w}");
            assert_eq!(got, expect_states, "workers={w}");
        }
    }

    #[test]
    fn stateful_handles_empty_and_singleton() {
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(
            run_indexed_mut(8, &mut empty, |i, _| i),
            Vec::<usize>::new()
        );
        let mut one = vec![5u8];
        assert_eq!(
            run_indexed_mut(8, &mut one, |i, s| i + *s as usize),
            vec![5]
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_indexed(4, 16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
