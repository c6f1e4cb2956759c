//! Ordered parallel map over scoped threads.
//!
//! §2.2 of the paper notes that the simulator parallelizes "across
//! multiple cores … easily": replications, batch configurations,
//! profiling replays and Eq. 2 calibrations are independent of one
//! another. Every fan-out in the workspace is one call to [`map`]:
//!
//! - results come back in input order, whatever order the workers
//!   finish in, so a seeded computation is bit-identical at any thread
//!   count;
//! - a panicking item fails only its own slot, as
//!   [`SprintError::WorkerPanic`] with the item's index and panic
//!   message, and every other item still runs;
//! - at one thread (or one item) the items run in order on the
//!   caller's thread and nothing is spawned;
//! - workers are scoped threads, so items and the closure may borrow
//!   from the caller and no thread outlives the call.

use crate::SprintError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on up to `threads` scoped workers (0 is
/// treated as 1) and returns the results in input order. Workers take
/// the next unclaimed item until none is left, so uneven items balance
/// across them.
///
/// A panic inside `f` is caught: that item's slot becomes
/// [`SprintError::WorkerPanic`] and the remaining items still run.
///
/// # Examples
///
/// ```
/// use simcore::par;
///
/// let squares = par::map(vec![1u64, 2, 3], 2, |x| x * x);
/// assert_eq!(squares.into_iter().collect::<Result<Vec<_>, _>>(), Ok(vec![1, 4, 9]));
/// ```
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Result<R, SprintError>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let run = |index: usize, item: T| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| SprintError::WorkerPanic {
            index,
            message: panic_message(payload.as_ref()),
        })
    };
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, Result<R, SprintError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Take the item first so the lock is released
                        // before the item runs. Nothing can panic while
                        // the lock is held, so it is never poisoned.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else {
                            return out;
                        };
                        out.push((i, run(i, item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par::map workers catch every item's panic"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The text of a panic payload, when it is a string.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let n = 8usize;
        for threads in [0, 1, 2, 3, 8] {
            // With more than one worker, item 0 waits until the last
            // item has finished, so the items finish in a different
            // order from the one they came in.
            let (last_done, wait_for_last) = mpsc::channel();
            let wait_for_last = Mutex::new(wait_for_last);
            let out = map((0..n).collect(), threads, |i| {
                if threads > 1 && i == 0 {
                    wait_for_last.lock().unwrap().recv().unwrap();
                }
                if i == n - 1 {
                    last_done.send(()).unwrap();
                }
                i * 10
            });
            let out: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(
                out,
                (0..n).map(|i| i * 10).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_panicking_item_fails_only_its_own_slot() {
        for threads in [1, 4] {
            let out = map(vec![1u32, 2, 3, 4], threads, |x| {
                if x == 3 {
                    panic!("item three");
                }
                x + 100
            });
            assert_eq!(out.len(), 4);
            assert_eq!(out[0], Ok(101), "{threads} threads");
            assert_eq!(out[1], Ok(102), "{threads} threads");
            assert_eq!(
                out[2],
                Err(SprintError::WorkerPanic {
                    index: 2,
                    message: "item three".to_string(),
                }),
                "{threads} threads"
            );
            assert_eq!(out[3], Ok(104), "{threads} threads");
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        for threads in [1, 4] {
            assert!(map(Vec::<u8>::new(), threads, |x| x).is_empty());
        }
    }
}
