//! Time-bucketed capacity booking for contended resources.
//!
//! The pipeline runner computes stage timelines frame-by-frame, so
//! requests reach a shared resource (memory controller, mesh link, host
//! link) out of virtual-time order: stage A's access at t=0.3 s may be
//! issued *after* stage B's access at t=1.2 s was already registered. A
//! naive `busy_until` FIFO would make the earlier request queue behind the
//! later one — nonsense. Instead each resource keeps a ledger of busy time
//! per fixed-width time bucket; a request books its service time into the
//! first buckets with spare capacity at or after its start time. Requests
//! only contend when they genuinely overlap in virtual time, regardless of
//! the order the simulator discovers them in, and results stay fully
//! deterministic.
//!
//! The ledger is ordered by bucket and split at a cursor, so the entries on
//! either side of it are each a vector's last element. An entry is one
//! partly booked bucket or a run of consecutive saturated ones, and a
//! bucket no entry holds is empty. A booking seeks the cursor to its start
//! bucket, then steps it: over a saturated run in one step, and over a
//! partly booked or empty bucket in one step together with the whole empty
//! buckets after it, up to the next entry, which it books as one run. A
//! gap is a head partial, one run and a tail partial in two steps, so a
//! booking costs O(entries crossed), whatever its length in buckets.

use crate::time::SimTime;

/// Buckets `lo..=hi`, each with `used` ps booked. Only saturated buckets
/// (`used` is the bucket width) form runs of more than one.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lo: u64,
    hi: u64,
    used: u64,
}

/// A resource with 1 unit of capacity per unit time, tracked per bucket.
#[derive(Debug, Clone)]
pub struct BucketedResource {
    bucket_ps: u64,
    /// The entries below the cursor, ascending.
    before: Vec<Entry>,
    /// The entries at or above the cursor, descending.
    after: Vec<Entry>,
    total_busy_ps: u64,
    total_wait_ps: u64,
}

/// Outcome of one booking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    /// When the booked service completes.
    pub completion: SimTime,
    /// Queueing delay versus an uncontended resource.
    pub wait: SimTime,
}

impl BucketedResource {
    /// `bucket` is the ledger granularity; contention is resolved at this
    /// resolution. 1 ms suits the macro pipeline's millisecond-scale
    /// transfers.
    pub fn new(bucket: SimTime) -> Self {
        assert!(!bucket.is_zero(), "zero bucket width");
        BucketedResource {
            bucket_ps: bucket.as_ps(),
            before: Vec::new(),
            after: Vec::new(),
            total_busy_ps: 0,
            total_wait_ps: 0,
        }
    }

    /// Book `service` of busy time starting no earlier than `start`. A
    /// booking that cannot finish below `u64::MAX` ps completes at
    /// [`SimTime::MAX`].
    pub fn book(&mut self, start: SimTime, service: SimTime) -> Booking {
        if service.is_zero() {
            return Booking {
                completion: start,
                wait: SimTime::ZERO,
            };
        }
        let bucket_ps = self.bucket_ps;
        // The last bucket is short: it ends virtual time at `u64::MAX`, so
        // it is never saturated and never joins a run. Every bucket below
        // it holds `bucket_ps`.
        let last = u64::MAX / bucket_ps;
        let mut remaining = service.as_ps();
        let mut t = start.as_ps();
        let first = t / bucket_ps;
        while let Some(e) = self.before.pop_if(|e| e.hi >= first) {
            self.after.push(e);
        }
        while let Some(e) = self.after.pop_if(|e| e.hi < first) {
            self.push_before(e);
        }
        let completion = loop {
            let b = t / bucket_ps;
            if let Some(run) = self.after.pop_if(|e| e.lo <= b && e.used == bucket_ps) {
                // Nothing fits before the run's end.
                self.push_before(run);
                t = (run.hi + 1) * bucket_ps;
                if t == u64::MAX {
                    break u64::MAX;
                }
                continue;
            }
            // Bucket `b` on its own: partly booked, or the head of a gap.
            let bucket_start = b * bucket_ps;
            let bucket_end = bucket_start.saturating_add(bucket_ps);
            let mut entry = self.after.pop_if(|e| e.lo == b).unwrap_or(Entry {
                lo: b,
                hi: b,
                used: 0,
            });
            // Earlier bookings occupy the bucket's head; this request can
            // run from whichever is later: its own arrival or the end of
            // the already-booked portion.
            let avail_from = (bucket_start + entry.used).max(t);
            let mut done = None;
            if avail_from < bucket_end {
                let take = remaining.min(bucket_end - avail_from);
                entry.used += take;
                remaining -= take;
                if remaining == 0 {
                    done = Some(avail_from + take);
                }
            }
            if entry.used > 0 {
                self.push_before(entry);
            }
            if let Some(completion) = done {
                break completion;
            }
            if bucket_end == u64::MAX {
                // The last bucket ends virtual time: no later one exists.
                break u64::MAX;
            }
            t = bucket_end;
            // The empty buckets up to the next entry: fill whole ones as
            // one run.
            let next = self.after.last().map_or(last, |e| e.lo.min(last));
            let whole = (remaining / bucket_ps).min(next - (b + 1));
            if whole > 0 {
                self.push_before(Entry {
                    lo: b + 1,
                    hi: b + whole,
                    used: bucket_ps,
                });
                remaining -= whole * bucket_ps;
                t += whole * bucket_ps;
                if remaining == 0 {
                    break t;
                }
                if t == u64::MAX {
                    break u64::MAX;
                }
            }
        };
        self.total_busy_ps += service.as_ps();
        let uncontended = start + service;
        let wait = SimTime::from_ps(completion).saturating_sub(uncontended);
        self.total_wait_ps += wait.as_ps();
        Booking {
            completion: SimTime::from_ps(completion),
            wait,
        }
    }

    /// Step the cursor over `e`, the next entry above it, joining it to a
    /// saturated run that ends just below.
    fn push_before(&mut self, e: Entry) {
        if let Some(prev) = self.before.last_mut() {
            if e.used == self.bucket_ps && prev.used == self.bucket_ps && prev.hi + 1 == e.lo {
                prev.hi = e.hi;
                return;
            }
        }
        self.before.push(e);
    }

    /// Total service time booked.
    pub fn total_busy(&self) -> SimTime {
        SimTime::from_ps(self.total_busy_ps)
    }

    /// Total queueing delay across bookings.
    pub fn total_wait(&self) -> SimTime {
        SimTime::from_ps(self.total_wait_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn res() -> BucketedResource {
        BucketedResource::new(SimTime::from_ms(1))
    }

    /// The ledger as one `HashMap` entry per bucket, its walk kept verbatim
    /// as the oracle every other representation must match booking for
    /// booking. The end-of-time overflow at `bucket_end` is kept too:
    /// scripts that drive it stay well below `u64::MAX`.
    struct Reference {
        bucket_ps: u64,
        used: HashMap<u64, u64>,
        total_busy_ps: u64,
        total_wait_ps: u64,
    }

    impl Reference {
        fn new(bucket: SimTime) -> Self {
            Reference {
                bucket_ps: bucket.as_ps(),
                used: HashMap::new(),
                total_busy_ps: 0,
                total_wait_ps: 0,
            }
        }

        fn book_reference(&mut self, start: SimTime, service: SimTime) -> Booking {
            if service.is_zero() {
                return Booking {
                    completion: start,
                    wait: SimTime::ZERO,
                };
            }
            let mut remaining = service.as_ps();
            let mut t = start.as_ps();
            let mut completion;
            loop {
                let b = t / self.bucket_ps;
                let bucket_start = b * self.bucket_ps;
                let bucket_end = bucket_start + self.bucket_ps;
                let used = self.used.entry(b).or_insert(0);
                let avail_from = (bucket_start + *used).max(t);
                if avail_from < bucket_end {
                    let take = remaining.min(bucket_end - avail_from);
                    *used += take;
                    remaining -= take;
                    completion = avail_from + take;
                    if remaining == 0 {
                        break;
                    }
                }
                t = bucket_end;
            }
            self.total_busy_ps += service.as_ps();
            let uncontended = start + service;
            let wait = SimTime::from_ps(completion).saturating_sub(uncontended);
            self.total_wait_ps += wait.as_ps();
            Booking {
                completion: SimTime::from_ps(completion),
                wait,
            }
        }
    }

    /// The traffic the simulator sends a ledger, as `(start, service)`
    /// pairs in ps. Each op is `(kind, a, b)` with `a` and `b` free words,
    /// read against a window that advances the way a frame-major pass's
    /// starts do. Every start stays below ~1 001 s.
    fn script(ops: &[(u8, u64, u64)]) -> Vec<(u64, u64)> {
        let ms = PS_PER_MS;
        let mut window = 0u64;
        let mut out = Vec::new();
        for &(kind, a, b) in ops {
            // Zero, sub-bucket or multi-bucket service.
            let service = match b % 4 {
                0 => 0,
                1 | 2 => (b >> 8) % ms,
                _ => (b >> 8) % (6 * ms),
            };
            let near = window + a % (20 * ms);
            match kind % 16 {
                // Out of order inside the window, which moves up to 6 ms:
                // about two-thirds load, so saturation stays local.
                0..=9 => {
                    out.push((near, service));
                    window += (a >> 20) % (6 * ms);
                }
                // Far back.
                10 | 11 => out.push((a % (window + 1), service)),
                // A heartbeat sweep from t = 0 across everything booked.
                12 => {
                    let n = 8 + (b >> 32) % 24;
                    let step = window / n + a % ms + 1;
                    out.extend((0..n).map(|i| (i * step, service % (ms / 4))));
                }
                // A stretch of saturated buckets.
                13 => out.extend((0..4 + (b >> 32) % 12).map(|_| (near, 3 * ms / 5))),
                // Far ahead, where the ledger is sparse.
                _ => out.push((window + a % (1000 * PS_PER_SEC), service)),
            }
        }
        out
    }

    /// Whole frames as `(start, service)` pairs in ps, sized in `unit`s
    /// (the simulator's 1 ms, or a shorter stand-in for finer buckets
    /// that keeps the per-bucket oracle fast). Controller (6.4 units) and
    /// host-link (13 units) frames land in the empty space past a window
    /// that moves past everything they book; long services from a unit
    /// boundary and stacks of 3/5-unit bookings leave stretches of
    /// saturated buckets; far-back bookings and heartbeat sweeps from
    /// t = 0 then fill the gaps between them and cross them.
    fn frames_script(ops: &[(u8, u64, u64)], unit: u64) -> Vec<(u64, u64)> {
        let frame = |b: u64| [64 * unit / 10, 13 * unit][b as usize & 1];
        let mut window = 0u64;
        let mut out = Vec::new();
        for &(kind, a, b) in ops {
            match kind % 16 {
                // A frame into the empty space past the window.
                0..=4 => {
                    let start = window + a % (3 * unit);
                    out.push((start, frame(b)));
                    window = start + frame(b);
                }
                // A frame that overlaps the last one and queues behind it.
                5 | 6 => {
                    out.push((window.saturating_sub(a % (8 * unit)), frame(b)));
                    window += frame(b);
                }
                // Saturated buckets from a unit boundary, in one booking...
                7 => {
                    let start = window.next_multiple_of(unit);
                    let service = (2 + b % 40) * unit;
                    out.push((start, service));
                    window = start + service;
                }
                // ...or as a stack of bookings on one start.
                8 => {
                    let start = window + a % unit;
                    let n = 4 + b % 12;
                    out.extend((0..n).map(|_| (start, 3 * unit / 5)));
                    window = start + n * 3 * unit / 5;
                }
                // Far back, sub-unit or a whole frame.
                9..=12 => {
                    let service = if b & 2 == 0 {
                        (b >> 8) % unit
                    } else {
                        frame(b)
                    };
                    out.push((a % (window + 1), service));
                }
                // A heartbeat sweep from t = 0 across everything booked.
                _ => {
                    let n = 8 + (b >> 32) % 24;
                    let step = window / n + a % unit + 1;
                    out.extend((0..n).map(|i| (i * step, (b >> 8) % (unit / 4))));
                }
            }
        }
        out
    }

    fn fnv1a(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// 19 435 bookings from a splitmix64-seeded script on one 1 ms
    /// resource, every `(completion, wait)` and both totals folded into one
    /// FNV-1a: any change to what the ledger answers moves it.
    #[test]
    fn booking_script_digest_is_pinned() {
        let mut state = 0x5_cc1e_d6e5_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let ops: Vec<(u8, u64, u64)> = (0..7_000)
            .map(|_| ((next() >> 56) as u8, next(), next()))
            .collect();
        let bookings = script(&ops);
        let mut r = res();
        let mut h = 0xcbf2_9ce4_8422_2325;
        for &(start, service) in &bookings {
            let b = r.book(SimTime::from_ps(start), SimTime::from_ps(service));
            h = fnv1a(fnv1a(h, b.completion.as_ps()), b.wait.as_ps());
        }
        h = fnv1a(fnv1a(h, r.total_busy().as_ps()), r.total_wait().as_ps());
        assert_eq!((bookings.len(), h), (19_435, 0xcc16_a7de_25b5_5534));
    }

    /// `n` ops drawn from a splitmix64 stream seeded with `seed`.
    fn splitmix_ops(seed: u64, n: usize) -> Vec<(u8, u64, u64)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| ((next() >> 56) as u8, next(), next()))
            .collect()
    }

    /// Every `(completion, wait)` of `bookings` on one fresh resource, and
    /// both totals, folded into one FNV-1a.
    fn ledger_digest(bucket: SimTime, bookings: &[(u64, u64)]) -> u64 {
        let mut r = BucketedResource::new(bucket);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for &(start, service) in bookings {
            let b = r.book(SimTime::from_ps(start), SimTime::from_ps(service));
            h = fnv1a(fnv1a(h, b.completion.as_ps()), b.wait.as_ps());
        }
        fnv1a(fnv1a(h, r.total_busy().as_ps()), r.total_wait().as_ps())
    }

    /// The frame traffic at the simulator's 1 ms buckets (frames of 6.4
    /// and 13 buckets), and its first 500 ops at 1 ns buckets with a
    /// 10 ns unit (frames of 64 and 130 buckets): any change to what the
    /// ledger answers across saturated stretches and empty gaps moves one
    /// of them.
    #[test]
    fn frames_script_digest_is_pinned() {
        let ops = splitmix_ops(0x00f2_a3e5_c01e_d6e2, 1_500);
        let coarse = frames_script(&ops, PS_PER_MS);
        let fine = frames_script(&ops[..500], 10 * PS_PER_NS);
        assert_eq!(
            (coarse.len(), ledger_digest(SimTime::from_ms(1), &coarse)),
            (7_867, 0xdb34_15ae_ac27_0d18)
        );
        assert_eq!(
            (fine.len(), ledger_digest(SimTime::from_ns(1), &fine)),
            (2_559, 0xce6c_9842_ac87_afe6)
        );
    }

    proptest! {
        // `PROPTEST_CASES` can only raise the count (CI does).
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(256),
            ..ProptestConfig::default()
        })]

        /// Both scripts at 1 ms, any width from 1 us to 3 ms, and the
        /// 1 ns and 1 ps extremes (every 1 ps bucket is empty or
        /// saturated). Below 1 us a script millisecond shrinks to 100
        /// buckets, and a frame unit is never more than 4 buckets, so the
        /// oracle's per-bucket walks stay short at every width.
        #[test]
        fn ledger_matches_the_per_bucket_map(
            ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..160),
            bucket_ps in prop_oneof![
                Just(PS_PER_MS),
                (1u64..=3_000).prop_map(|us| us * PS_PER_US),
                Just(PS_PER_NS),
                Just(1u64),
            ],
            frames in any::<bool>(),
        ) {
            let shrink = if bucket_ps < PS_PER_US { 10 * PS_PER_US / bucket_ps } else { 1 };
            let bookings = if frames {
                frames_script(&ops, PS_PER_MS.min(4 * bucket_ps))
            } else {
                script(&ops).into_iter().map(|(s, v)| (s / shrink, v / shrink)).collect()
            };
            let bucket = SimTime::from_ps(bucket_ps);
            let (mut got, mut want) = (BucketedResource::new(bucket), Reference::new(bucket));
            for (i, &(start, service)) in bookings.iter().enumerate() {
                let (start, service) = (SimTime::from_ps(start), SimTime::from_ps(service));
                prop_assert_eq!(
                    got.book(start, service),
                    want.book_reference(start, service),
                    "booking {} of ({}, {})", i, start.as_ps(), service.as_ps()
                );
            }
            prop_assert_eq!(got.total_busy().as_ps(), want.total_busy_ps);
            prop_assert_eq!(got.total_wait().as_ps(), want.total_wait_ps);
        }
    }

    #[test]
    fn uncontended_booking_completes_immediately() {
        let mut r = res();
        let b = r.book(SimTime::from_ms(5), SimTime::from_us(200));
        assert_eq!(b.completion, SimTime::from_ms(5) + SimTime::from_us(200));
        assert_eq!(b.wait, SimTime::ZERO);
    }

    #[test]
    fn overlapping_bookings_contend() {
        let mut r = res();
        let t = SimTime::from_ms(10);
        let b1 = r.book(t, SimTime::from_us(600));
        let b2 = r.book(t, SimTime::from_us(600));
        assert_eq!(b1.wait, SimTime::ZERO);
        assert!(b2.wait > SimTime::ZERO, "second must queue");
        assert!(b2.completion > b1.completion);
    }

    #[test]
    fn disjoint_times_do_not_contend_regardless_of_issue_order() {
        // The whole point: a later-issued but earlier-timed request does
        // not queue behind a future booking.
        let mut r = res();
        r.book(SimTime::from_secs(1), SimTime::from_us(500));
        let early = r.book(SimTime::from_ms(1), SimTime::from_us(500));
        assert_eq!(early.wait, SimTime::ZERO);
        assert_eq!(
            early.completion,
            SimTime::from_ms(1) + SimTime::from_us(500)
        );
    }

    #[test]
    fn service_spanning_buckets() {
        let mut r = res();
        let b = r.book(SimTime::ZERO, SimTime::from_ms(3) + SimTime::from_us(500));
        assert_eq!(b.completion, SimTime::from_ms(3) + SimTime::from_us(500));
        assert_eq!(b.wait, SimTime::ZERO);
    }

    #[test]
    fn saturated_bucket_pushes_into_next() {
        let mut r = res();
        // Fill bucket 0 completely.
        r.book(SimTime::ZERO, SimTime::from_ms(1));
        let b = r.book(SimTime::ZERO, SimTime::from_us(100));
        // Must land in bucket 1.
        assert!(b.completion > SimTime::from_ms(1));
        assert!(b.completion <= SimTime::from_ms(1) + SimTime::from_us(100) + SimTime::from_us(1));
    }

    #[test]
    fn a_booking_past_the_end_of_time_saturates() {
        let mut r = res();
        let b = r.book(SimTime::from_ps(u64::MAX - 5), SimTime::from_ms(2));
        assert_eq!((b.completion, b.wait), (SimTime::MAX, SimTime::ZERO));
        // One that ends inside the last bucket still finishes exactly.
        let fits = r.book(SimTime::from_ps(u64::MAX - 10), SimTime::from_ps(3));
        assert_eq!(fits.completion, SimTime::from_ps(u64::MAX - 7));
        let at_end = r.book(SimTime::MAX, SimTime::from_ps(1));
        assert_eq!(at_end.completion, SimTime::MAX);
        assert_eq!(r.total_busy(), SimTime::from_ms(2) + SimTime::from_ps(4));
    }

    /// The last bucket below `u64::MAX` ps (index `last`) is short: its
    /// 709 551 615 ps end virtual time. Three saturated buckets sit in
    /// front of it.
    fn saturated_before_the_end() -> (BucketedResource, u64) {
        let mut r = res();
        let last = u64::MAX / PS_PER_MS;
        let b = r.book(
            SimTime::from_ps((last - 3) * PS_PER_MS),
            SimTime::from_ms(3),
        );
        assert_eq!(b.completion, SimTime::from_ps(last * PS_PER_MS));
        (r, last)
    }

    #[test]
    fn a_booking_across_a_saturated_stretch_ends_in_the_last_bucket() {
        let (mut r, last) = saturated_before_the_end();
        let start = (last - 4) * PS_PER_MS + PS_PER_MS / 2;
        let b = r.book(SimTime::from_ps(start), SimTime::from_us(800));
        // 0.5 ms in bucket last - 4, none in the stretch, 0.3 ms in the last.
        let completion = last * PS_PER_MS + 300 * PS_PER_US;
        assert_eq!(b.completion, SimTime::from_ps(completion));
        assert_eq!(
            b.wait,
            SimTime::from_ps(completion - start - 800 * PS_PER_US)
        );
        // The last bucket's 0.3 ms is booked: the next one queues after it.
        let next = r.book(SimTime::from_ps(last * PS_PER_MS), SimTime::from_us(1));
        assert_eq!(next.completion, SimTime::from_ps(completion + PS_PER_US));
        assert_eq!(r.total_busy(), SimTime::from_us(3_801));
    }

    #[test]
    fn a_booking_across_a_saturated_stretch_runs_past_the_end_of_time() {
        let (mut r, last) = saturated_before_the_end();
        let start = (last - 4) * PS_PER_MS;
        let service = PS_PER_MS + (u64::MAX - last * PS_PER_MS);
        // One ps more than the free bucket and the last bucket hold.
        let b = r.book(SimTime::from_ps(start), SimTime::from_ps(service + 1));
        assert_eq!(b.completion, SimTime::MAX);
        assert_eq!(b.wait, SimTime::from_ps(u64::MAX - start - service - 1));
        // Exactly what they hold would have ended at `u64::MAX` itself.
        let (mut r, _) = saturated_before_the_end();
        let b = r.book(SimTime::from_ps(start), SimTime::from_ps(service));
        assert_eq!((b.completion, b.wait), (SimTime::MAX, SimTime::from_ms(3)));
    }

    #[test]
    fn zero_service_is_free() {
        let mut r = res();
        let b = r.book(SimTime::from_ms(7), SimTime::ZERO);
        assert_eq!(b.completion, SimTime::from_ms(7));
        assert_eq!(r.total_busy(), SimTime::ZERO);
    }

    #[test]
    fn totals_accumulate() {
        let mut r = res();
        r.book(SimTime::ZERO, SimTime::from_us(400));
        r.book(SimTime::ZERO, SimTime::from_us(400));
        assert_eq!(r.total_busy(), SimTime::from_us(800));
        assert_eq!(r.total_wait(), SimTime::from_us(400));
    }

    #[test]
    fn heavy_overlap_spreads_completions_fairly() {
        let mut r = res();
        let mut completions: Vec<SimTime> = (0..10)
            .map(|_| r.book(SimTime::ZERO, SimTime::from_us(500)).completion)
            .collect();
        completions.sort();
        // 10 × 0.5 ms of work from t=0 finishes no earlier than 5 ms.
        assert!(*completions.last().unwrap() >= SimTime::from_ms(5));
        // Strictly increasing (each later booking queues further).
        for w in completions.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
