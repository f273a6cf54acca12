//! The ingest lane between one device-driver thread and one shard
//! worker: a bounded [`std::sync::mpsc::sync_channel`]. A full lane
//! parks the producer and an empty one parks the consumer, both on a
//! futex, so neither side spins.
//!
//! Backpressure is blocking, not lossy. The service's conservation
//! invariant ("a completed checkpoint is never dropped") holds because
//! no code path here discards an event while the consumer is alive.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Creates a bounded lane buffering up to `capacity` items (minimum 1).
#[must_use]
pub fn lane<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let (sender, receiver) = sync_channel(capacity.max(1));
    (Producer { sender }, Consumer { receiver })
}

/// The write half of a lane, owned by one device-driver thread.
/// Dropping it closes the lane: the consumer drains what remains and
/// then sees end-of-stream.
#[derive(Debug)]
pub struct Producer<T> {
    sender: SyncSender<T>,
}

impl<T> Producer<T> {
    /// Appends `item`, blocking while the lane is full. Returns the item
    /// back as `Err` only if the consumer is gone.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.sender.send(item).map_err(|error| error.0)
    }

    /// Appends every item drained from `items`, in order, blocking while
    /// the lane is full. `items` is left empty, so callers reuse it as a
    /// staging buffer. Returns `Err(n)`, with the `n` undelivered items
    /// dropped, only if the consumer is gone.
    pub fn push_slice(&self, items: &mut Vec<T>) -> Result<(), usize> {
        let total = items.len();
        for (sent, item) in items.drain(..).enumerate() {
            if self.sender.send(item).is_err() {
                return Err(total - sent);
            }
        }
        Ok(())
    }
}

/// The read half of a lane, owned by one shard worker.
#[derive(Debug)]
pub struct Consumer<T> {
    receiver: Receiver<T>,
}

impl<T> Consumer<T> {
    /// Blocks until an item arrives, then drains whatever else is already
    /// buffered, up to `max` items in all (at least one), into `out`.
    /// Returns how many were taken; `0` means the producer closed the
    /// lane and everything buffered has drained: true end-of-stream.
    pub fn recv_slice(&self, out: &mut Vec<T>, max: usize) -> usize {
        let Ok(first) = self.receiver.recv() else {
            return 0;
        };
        let before = out.len();
        out.push(first);
        out.extend(self.receiver.try_iter().take(max.saturating_sub(1)));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_slice_respects_max_then_sees_end_of_stream() {
        let (producer, consumer) = lane(8);
        let mut batch = (0..6).collect::<Vec<_>>();
        assert_eq!(producer.push_slice(&mut batch), Ok(()));
        assert!(batch.is_empty(), "staging buffer drained");
        drop(producer);
        let mut out = Vec::new();
        assert_eq!(consumer.recv_slice(&mut out, 4), 4);
        assert_eq!(consumer.recv_slice(&mut out, 4), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(consumer.recv_slice(&mut out, 4), 0, "end of stream");
    }

    #[test]
    fn pushes_fail_once_the_consumer_is_gone() {
        let (producer, consumer) = lane(2);
        drop(consumer);
        assert_eq!(producer.push(1), Err(1));
        let mut batch = vec![1, 2, 3];
        assert_eq!(producer.push_slice(&mut batch), Err(3), "none delivered");
        assert!(batch.is_empty());
    }

    #[test]
    fn cross_thread_transfer_through_a_full_lane_is_lossless_and_ordered() {
        const COUNT: usize = 16_384;
        const BURST: usize = 64;
        let (producer, consumer) = lane(8);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut staging = Vec::with_capacity(BURST);
                for value in 0..COUNT {
                    staging.push(value);
                    if staging.len() == BURST || value + 1 == COUNT {
                        assert_eq!(producer.push_slice(&mut staging), Ok(()));
                    }
                }
            });
            let mut seen = Vec::with_capacity(COUNT);
            while consumer.recv_slice(&mut seen, BURST) > 0 {}
            assert_eq!(seen, (0..COUNT).collect::<Vec<_>>());
        });
    }
}
