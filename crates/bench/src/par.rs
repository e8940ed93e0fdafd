//! A small work-stealing-free parallel map for benchmark sweeps.
//!
//! The sweep binaries fan (circuit, device) compilation jobs across a pool
//! of OS threads. Each job owns its own [`qsyn_core::Compiler`] (and hence
//! its own QMDD package), so workers share nothing but the input slice and
//! the output slots; results are collected in **input order** regardless of
//! which worker finished first, keeping sweep output deterministic.
//!
//! This is a hand-rolled `std::thread` pool rather than a rayon dependency
//! so the workspace builds in offline environments. The scheduling is a
//! single shared atomic cursor: workers repeatedly claim the next unclaimed
//! index, which balances load well when per-job cost varies by orders of
//! magnitude (small STG functions vs. 96-qubit cascades).

use qsyn_core::pool::{default_jobs, panic_message};
use qsyn_core::Args;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The sweep binaries' `--jobs N` flag: a positive worker count,
/// [`default_jobs`] when absent.
///
/// # Errors
///
/// A message naming the flag when its value is not a positive integer.
pub fn jobs_arg(args: &Args) -> Result<usize, String> {
    Ok(args
        .count("jobs", 1, "a positive integer")?
        .unwrap_or_else(default_jobs))
}

/// Applies `f` to every item, using up to `jobs` worker threads, and
/// returns the results in input order.
///
/// `f` receives the item's index (sweeps use it as the job id stamped on
/// trace events) and the item itself. With `jobs <= 1` the map runs inline
/// on the calling thread with no pool at all, so serial runs behave exactly
/// as before the executor existed.
///
/// # Panics
///
/// Propagates a panic from any worker once all threads have been joined.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Compilation jobs are CPU-bound, so threads beyond the available
    // cores only add stacks and context switches: an oversized `--jobs`
    // is clamped to the machine rather than honored literally.
    let workers = jobs.min(items.len()).min(default_jobs());
    let cursor = AtomicUsize::new(0);
    // One mutex per slot: a worker only ever locks the slot it claimed, so
    // there is no contention — the mutex is just the portable way to write
    // into shared storage from scoped threads.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// [`par_map`] with per-job fault isolation: a panicking job yields an
/// `Err` row carrying the panic message instead of tearing down the whole
/// sweep, so N inputs always produce N rows.
///
/// The sweep binaries run every compilation through this wrapper — one
/// poisoned benchmark (a compiler defect, a blown `unwrap`) must not cost
/// the other N-1 results of a long parallel run.
pub fn try_par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items, jobs, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let square = |_: usize, &x: &u64| x * x;
        assert_eq!(par_map(&items, 1, square), par_map(&items, 8, square));
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [1, 2, 3];
        assert_eq!(par_map(&items, 64, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        assert!(par_map(&items, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn oversized_jobs_still_complete_every_item() {
        // An absurd --jobs value must not spawn an absurd thread count;
        // the pool clamps to the machine and still fills every slot.
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(&items, 100_000, |_, &x| x + 1);
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_isolates_panics() {
        let items: Vec<usize> = (0..16).collect();
        let out = try_par_map(&items, 4, |_, &x| {
            if x % 5 == 3 {
                panic!("job {x} exploded");
            }
            x * 10
        });
        assert_eq!(out.len(), items.len());
        for (x, row) in items.iter().zip(&out) {
            if x % 5 == 3 {
                let msg = row.as_ref().unwrap_err();
                assert!(msg.contains("exploded"), "{msg}");
            } else {
                assert_eq!(*row.as_ref().unwrap(), x * 10);
            }
        }
    }

    #[test]
    fn try_par_map_serial_also_isolates() {
        let out = try_par_map(&[1u8], 1, |_, _| -> u8 { panic!("lone job") });
        assert_eq!(out.len(), 1);
        assert!(out[0].as_ref().unwrap_err().contains("lone job"));
    }

    #[test]
    fn jobs_flag_parses_both_forms() {
        let parse = |v: &[&str]| {
            let v: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            jobs_arg(&Args::parse(&v, &[], &["jobs"])?)
        };
        assert_eq!(parse(&["--jobs", "4"]), Ok(4));
        assert_eq!(parse(&["--jobs=8"]), Ok(8));
        assert_eq!(parse(&[]), Ok(default_jobs()));
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "zero"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
    }
}
