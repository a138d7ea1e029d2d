//! The engine's pending-event queue.
//!
//! Events live in a slab (a `Vec` with a free list) and never move once
//! stored. The binary heap orders only small `(at, seq, slot)` keys, so a
//! sift step moves 24 bytes instead of a whole event. `seq` is assigned in
//! push order and is unique, so events pop in `(at, seq)` order: by time,
//! and first-scheduled first among events at the same instant.

use hermes_core::MediaTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap key: due time, push sequence number, slab slot. `seq` is unique,
/// so `slot` never decides the order.
type Key = (MediaTime, u64, u32);

/// A min-queue of events keyed by due time, FIFO among equal times.
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<T>>,
    /// Vacant slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Sequence number of the next push.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `item` at `at`, after everything already scheduled at `at`.
    pub(crate) fn push(&mut self, at: MediaTime, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab full");
                self.slab.push(Some(item));
                slot
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Remove and return the earliest event with its due time.
    pub(crate) fn pop(&mut self) -> Option<(MediaTime, T)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let item = self.slab[slot as usize]
            .take()
            .expect("queued slot holds an event");
        self.free.push(slot);
        Some((at, item))
    }

    /// Due time of the earliest event.
    pub(crate) fn peek_at(&self) -> Option<MediaTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn heap_key_fits_in_24_bytes() {
        assert!(std::mem::size_of::<Reverse<Key>>() <= 24);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for (at, tag) in [(5, 'a'), (1, 'b'), (5, 'c'), (1, 'd')] {
            q.push(MediaTime::from_micros(at), tag);
        }
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, t)| t)).collect();
        assert_eq!(order, vec!['b', 'd', 'a', 'c']);
        assert_eq!(q.peek_at(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under any interleaving of pushes and pops — few distinct times,
        /// so many ties, and pops that free slots for reuse — the slab
        /// queue yields exactly the `(at, seq)` order of a reference heap
        /// holding whole entries.
        #[test]
        fn pops_in_reference_heap_order(
            ops in proptest::collection::vec((0u8..5, 0i64..8), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut peak = 0;
            for (kind, at) in ops {
                // Three pushes to two pops on average.
                match (kind < 3).then_some(at) {
                    Some(at) => {
                        let at = MediaTime::from_micros(at);
                        q.push(at, seq);
                        reference.push(Reverse((at, seq)));
                        seq += 1;
                        peak = peak.max(reference.len());
                    }
                    None => {
                        prop_assert_eq!(q.peek_at(), reference.peek().map(|Reverse((at, _))| *at));
                        prop_assert_eq!(q.pop(), reference.pop().map(|Reverse(e)| e));
                    }
                }
            }
            while let Some(Reverse(e)) = reference.pop() {
                prop_assert_eq!(q.pop(), Some(e));
            }
            prop_assert_eq!(q.pop(), None);
            // Freed slots are reused: the slab never outgrows the most
            // events queued at once.
            prop_assert_eq!(q.slab.len(), peak);
        }
    }
}
