//! Generic discrete-event simulation core.
//!
//! [`EventQueue`] is a deterministic priority queue of `(time, payload)`
//! pairs: ties in time are broken by insertion order, so two runs of the
//! same program always pop events in the same order regardless of the
//! payload type or host.

use crate::fault::FaultPlan;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An event scheduled at a point in virtual time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic min-heap of timed events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    fault: Option<Arc<FaultPlan>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            fault: None,
        }
    }

    /// Inject deterministic scheduling jitter: each event's timestamp may
    /// be pushed late by `FaultPlan::event_jitter(seq)`. With a quiet plan
    /// (the default), behaviour is identical to an unfaulted queue.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// Current virtual time: the timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the model; it is clamped to `now` with a debug assertion.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        let mut time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(plan) = &self.fault {
            time += plan.event_jitter(seq);
        }
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Pop the earliest event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "clock moved backwards");
        self.now = s.time;
        self.popped += 1;
        Some((s.time, s.payload))
    }

    /// Drain every remaining event in time order (consumes the queue).
    pub fn drain_ordered(mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5), "c");
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(3), "b");
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(2), ());
        q.schedule(SimTime::from_ms(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
        assert_eq!(q.processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn jitter_is_deterministic_and_quiet_plan_is_identity() {
        use crate::fault::{FaultConfig, FaultPlan};

        let jittery = FaultConfig {
            seed: 13,
            delay_rate: 0.5,
            max_delay: SimTime::from_ms(2),
            ..FaultConfig::default()
        };
        let mut a = EventQueue::new();
        a.set_fault_plan(Arc::new(FaultPlan::new(jittery.clone())));
        let mut b = EventQueue::new();
        b.set_fault_plan(Arc::new(FaultPlan::new(jittery)));
        let mut quiet = EventQueue::new();
        quiet.set_fault_plan(Arc::new(FaultPlan::default()));
        let mut plain = EventQueue::new();
        for i in 0..50u32 {
            let t = SimTime::from_ms(u64::from(i % 7));
            a.schedule(t, i);
            b.schedule(t, i);
            quiet.schedule(t, i);
            plain.schedule(t, i);
        }
        assert_eq!(a.drain_ordered(), b.drain_ordered());
        assert_eq!(quiet.drain_ordered(), plain.drain_ordered());
    }
}
