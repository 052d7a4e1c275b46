//! Host fan-out: a batch of independent jobs spread over a few threads.
//!
//! One helper serves every caller that has a short list of jobs and a few
//! host threads to run them on — the serving engine's render and assemble
//! bursts, the native source thread's row bands. The calling thread is one
//! of the workers, and jobs are claimed one at a time from a shared cursor,
//! so a thread that draws a cheap job takes the next one rather than
//! idling behind a static deal. Which thread runs which job is left to the
//! host; a caller whose output must not depend on it keeps its jobs
//! disjoint and combines their results in an order of its own.

use std::sync::Mutex;
use std::thread;

/// Run `work` on every item of `jobs` on `threads` host threads, the
/// calling thread one of them (`threads − 1` scoped helpers, none for
/// `threads ≤ 1`; callers pass at most one thread per job). Each thread
/// folds the items it claims into its own accumulator, starting from
/// `A::default()`; the caller's comes back with every helper's merged into
/// it by `merge`, in spawn order. A panic in a job is re-raised on the
/// caller once the other threads have run out of jobs.
pub fn fan_out<J, A>(
    threads: usize,
    jobs: J,
    work: impl Fn(&mut A, J::Item) + Sync,
    mut merge: impl FnMut(&mut A, A),
) -> A
where
    J: Iterator + Send,
    A: Default + Send,
{
    let jobs = Mutex::new(jobs);
    let run = || {
        let mut acc = A::default();
        loop {
            // The claim is one statement: the lock is released before the
            // job runs, so only a panic inside the iterator can poison it.
            let job = jobs.lock().expect("the job iterator panicked").next();
            match job {
                Some(job) => work(&mut acc, job),
                None => return acc,
            }
        }
    };
    if threads <= 1 {
        return run();
    }
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
        let mut acc = run();
        for h in helpers {
            merge(
                &mut acc,
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        acc
    })
}

/// `f(0), f(1), .., f(n - 1)`, in index order, computed on up to `threads`
/// host threads of which the calling thread is one ([`fan_out`] over the
/// indices).
pub fn burst<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut done = fan_out(
        threads.min(n),
        0..n,
        |done: &mut Vec<(usize, T)>, i| done.push((i, f(i))),
        |done, theirs| done.extend(theirs),
    );
    debug_assert_eq!(done.len(), n, "burst: every index is claimed exactly once");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn burst_runs_every_index_once_and_answers_in_index_order() {
        for threads in [1, 2, 5] {
            for n in [0, 1, 2, 9] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = burst(threads, n, |i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "threads {threads} n {n}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "threads {threads} n {n}: an index ran twice or not at all"
                );
            }
        }
    }

    #[test]
    fn burst_spawns_no_thread_it_has_no_job_for() {
        // `min(threads, n) − 1` helpers: none for an empty burst, and a
        // single job runs on the thread that asked.
        let me = std::thread::current().id();
        assert!(burst(5, 0, |_| std::thread::current().id()).is_empty());
        assert_eq!(burst(5, 1, |_| std::thread::current().id()), [me]);
    }

    /// Count this job in and wait until `n` jobs are inside the burst at
    /// once; false if they never are (a burst that ran them one after the
    /// other), so a regression fails instead of hanging.
    fn rendezvous(arrived: &AtomicUsize, n: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while arrived.load(Ordering::SeqCst) < n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn burst_runs_jobs_side_by_side_with_the_caller_as_a_worker() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let out = burst(2, 2, |_| {
            (rendezvous(&arrived, 2), std::thread::current().id() == me)
        });
        assert!(out.iter().all(|&(met, _)| met), "jobs never overlapped");
        assert_eq!(
            out.iter().filter(|&&(_, on_caller)| on_caller).count(),
            1,
            "the calling thread takes exactly one of two overlapping jobs"
        );
    }

    #[test]
    #[should_panic(expected = "job on a helper failed")]
    fn burst_reraises_a_helper_panic_on_the_caller() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        burst(2, 2, |_| {
            // Both threads hold a job before either decides.
            assert!(rendezvous(&arrived, 2));
            if std::thread::current().id() != me {
                panic!("job on a helper failed");
            }
        });
    }

    #[test]
    #[should_panic(expected = "job on the caller failed")]
    fn burst_lets_a_caller_panic_through_once_the_helpers_are_done() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        burst(2, 2, |_| {
            assert!(rendezvous(&arrived, 2));
            if std::thread::current().id() == me {
                panic!("job on the caller failed");
            }
        });
    }

    /// The band path's use: disjoint `&mut` items claimed off a lazy
    /// iterator, a sum merged back, and every item written exactly once.
    #[test]
    fn fan_out_hands_each_item_to_one_thread_and_merges_every_accumulator() {
        for threads in [1, 2, 3, 8] {
            let mut rows = vec![0u32; 37];
            let sum = fan_out(
                threads,
                rows.chunks_mut(5).enumerate(),
                |acc: &mut u64, (k, chunk)| {
                    for v in chunk.iter_mut() {
                        *v += k as u32 + 1;
                    }
                    *acc += chunk.len() as u64;
                },
                |acc, theirs| *acc += theirs,
            );
            assert_eq!(sum, 37, "threads {threads}");
            let want: Vec<u32> = (0..37).map(|i| i / 5 + 1).collect();
            assert_eq!(rows, want, "threads {threads}");
        }
    }
}
