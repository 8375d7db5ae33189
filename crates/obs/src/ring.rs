//! The one bounded history of the workspace (DESIGN.md §12). It holds
//! the flight recorder's events, a link's egress frames and the
//! telemetry sink's spans and flows.

use std::collections::{vec_deque, VecDeque};

/// The newest `capacity` items, oldest first. A full ring evicts its
/// oldest item and counts it. Every item ever pushed has a number, from
/// 0 on, so a reader can take the items from number `n` on (a link's
/// replay from its peer's resume token) or drain them all. Not
/// synchronized: its owners lock it.
///
/// ```
/// use bsml_obs::Ring;
///
/// let mut ring = Ring::new(2);
/// for item in ["a", "b", "c"] {
///     ring.push(item);
/// }
/// assert_eq!((ring.evicted(), ring.pushed()), (1, 3));
/// assert_eq!(ring.since(2).unwrap().collect::<Vec<_>>(), [&"c"]);
/// assert!(ring.since(0).is_none(), "item 0 was evicted");
/// assert_eq!(ring.drain(), ["b", "c"]);
/// ```
#[derive(Debug)]
pub struct Ring<T> {
    capacity: usize,
    items: VecDeque<T>,
    /// The number of `items[0]`: items evicted or drained so far.
    first: u64,
    evicted: u64,
}

impl<T> Ring<T> {
    /// An empty ring. Capacity 0 is legal: every item is evicted as it
    /// arrives. Nothing is allocated up front.
    #[must_use]
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity,
            items: VecDeque::new(),
            first: 0,
            evicted: 0,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items evicted so far (drained ones are not).
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Items ever pushed: the number the next item gets.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.first + self.items.len() as u64
    }

    /// Appends `item`; a full ring first evicts its oldest item and
    /// returns it (at capacity 0, `item` itself).
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.items.len() < self.capacity {
            self.items.push_back(item);
            return None;
        }
        self.first += 1;
        self.evicted += 1;
        match self.items.pop_front() {
            Some(oldest) => {
                self.items.push_back(item);
                Some(oldest)
            }
            None => Some(item),
        }
    }

    /// The items held, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// The items numbered `n` on, oldest first; `None` when item `n` is
    /// gone or `n` is past [`Ring::pushed`].
    #[must_use]
    pub fn since(&self, n: u64) -> Option<vec_deque::Iter<'_, T>> {
        let skip = usize::try_from(n.checked_sub(self.first)?).ok()?;
        (skip <= self.items.len()).then(|| self.items.range(skip..))
    }

    /// Removes and returns the items held, oldest first. The numbering
    /// and the eviction count carry on.
    pub fn drain(&mut self) -> Vec<T> {
        self.first = self.pushed();
        self.items.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_and_counts_the_evicted() {
        let mut ring = Ring::new(3);
        let evicted: Vec<_> = (0..5).filter_map(|i| ring.push(i)).collect();
        assert_eq!(evicted, [0, 1]);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!((ring.len(), ring.evicted(), ring.pushed()), (3, 2, 5));
    }

    #[test]
    fn capacity_zero_evicts_every_item_as_it_arrives() {
        let mut ring = Ring::new(0);
        assert_eq!(ring.push('a'), Some('a'));
        assert_eq!(ring.push('b'), Some('b'));
        assert!(ring.is_empty());
        assert_eq!((ring.evicted(), ring.pushed()), (2, 2));
        assert_eq!(ring.since(2).map(Iterator::count), Some(0));
    }

    #[test]
    fn a_drain_keeps_the_numbering_and_the_eviction_count() {
        let mut ring = Ring::new(2);
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(ring.drain(), [1, 2]);
        assert!(ring.is_empty());
        assert_eq!((ring.evicted(), ring.pushed()), (1, 3));
        // Drained items are gone to readers too.
        assert!(ring.since(2).is_none());
        ring.push(3);
        assert_eq!(ring.since(3).expect("held").collect::<Vec<_>>(), [&3]);
    }

    #[test]
    fn egress_ring_replays_exactly_the_unseen_suffix() {
        let mut ring = Ring::new(4096);
        for i in 0..5u8 {
            ring.push(vec![i]);
        }
        assert_eq!(ring.pushed(), 5);
        // The peer saw 3 of 5: the replay is frames 3 and 4.
        let frames: Vec<_> = ring.since(3).expect("in range").collect();
        assert_eq!(frames, vec![&vec![3u8], &vec![4u8]]);
        // Everything seen: an empty replay, not a refusal.
        assert_eq!(ring.since(5).expect("in range").len(), 0);
        // Claiming more than was ever sent is a protocol violation.
        assert!(ring.since(6).is_none());
    }

    #[test]
    fn egress_ring_refuses_tokens_older_than_its_base() {
        const CAPACITY: usize = 4096;
        let mut ring = Ring::new(CAPACITY);
        for i in 0..(CAPACITY + 10) {
            ring.push(vec![u8::try_from(i % 251).expect("fits")]);
        }
        assert_eq!(ring.pushed() as usize, CAPACITY + 10);
        // The first 10 frames were evicted: a peer that far behind
        // cannot be healed.
        assert!(ring.since(9).is_none());
        let frames = ring.since(10).expect("exactly the base");
        assert_eq!(frames.len(), CAPACITY);
    }
}
