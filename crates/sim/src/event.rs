//! Deterministic event queue.
//!
//! The queue orders events by timestamp and, among events sharing a
//! timestamp, by insertion order. This FIFO tie-break is what makes the whole
//! simulation deterministic: two runs with the same seed schedule the same
//! events and observe them in the same order.
//!
//! The backing store is a `BinaryHeap` keyed on `(at, seq)`. Its only
//! production user, the framework's deferred binder death notices, holds a
//! handful of entries and is empty unless a fault plan is attached.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event that has been scheduled for a specific instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number; the FIFO tie-break among same-time events.
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: T,
}

struct HeapEntry<T>(ScheduledEvent<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A priority queue of timed events with deterministic ordering.
///
/// # Example
///
/// ```
/// use ea_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_secs(2), "late");
/// queue.schedule(SimTime::from_secs(1), "early");
/// assert_eq!(queue.peek_time(), Some(SimTime::from_secs(1)));
/// assert_eq!(queue.pop_next().unwrap().payload, "early");
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at` and returns its sequence number.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(HeapEntry(ScheduledEvent { at, seq, payload }));
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop_next(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop().map(|entry| entry.0)
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.0.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_millis(30), 3);
        queue.schedule(SimTime::from_millis(10), 1);
        queue.schedule(SimTime::from_millis(20), 2);

        let order: Vec<i32> = std::iter::from_fn(|| queue.pop_next())
            .map(|event| event.payload)
            .collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut queue = EventQueue::new();
        for i in 0..100 {
            queue.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop_next())
            .map(|event| event.payload)
            .collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(7), 0);
        assert_eq!(queue.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, 0);
        queue.clear();
        assert!(queue.is_empty());
        assert!(queue.pop_next().is_none());
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut queue = EventQueue::new();
        let a = queue.schedule(SimTime::ZERO, 0);
        let b = queue.schedule(SimTime::ZERO, 0);
        assert!(b > a);
    }
}
