//! Time-ordered event queue with stable tie-breaking and lazy cancellation.
//!
//! Implemented as a 4-ary implicit min-heap over small `Copy` entries plus
//! a slot pool holding the payloads. A 4-ary heap halves the tree depth of
//! a binary heap and keeps the children of a node in one or two cache
//! lines, which matters on the DES hot path where every packet hop is a
//! push/pop pair. Payload slots are recycled through a free list, so a
//! steady-state simulation stops allocating once the queue reaches its
//! high-water mark.

use crate::SimTime;

/// A handle identifying a scheduled event, usable to cancel it.
///
/// Handles are unique per [`EventQueue`] for the lifetime of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// Heap entry: the ordering key plus the index of the payload slot.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The next item of an external stream merged into an [`EventQueue`]
/// (see [`EventQueue::pop_merged`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Merged<E> {
    /// The stream's next element goes first; the caller advances it.
    Stream,
    /// The queue's head event, popped.
    Queue(SimTime, E),
}

/// Payload storage. `seq` disambiguates recycled slots so stale handles
/// can never cancel an unrelated event; `payload` is `None` once the
/// event fired or was cancelled (lazy cancellation leaves the heap entry
/// in place until it reaches the head).
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

const ARITY: usize = 4;

/// A discrete-event queue: events are delivered in nondecreasing time
/// order, and events scheduled for the same instant are delivered in the
/// order they were scheduled (FIFO).
///
/// Cancellation is *lazy*: [`EventQueue::cancel`] empties the payload slot
/// and the heap entry is discarded when it reaches the head, giving
/// O(log n) amortized cost for all operations.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.schedule(SimTime::from_nanos(10), "drop me");
/// q.schedule(SimTime::from_nanos(20), "keep me");
/// q.cancel(h);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("keep me"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    /// Slot indices whose heap entry has been discarded, free for reuse.
    free: Vec<u32>,
    /// Number of scheduled-but-neither-fired-nor-cancelled events.
    live: usize,
    next_seq: u64,
    /// Time of the last popped event; pops are monotone.
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`]
    /// before the first pop). Schedules in the past are rejected against
    /// this clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for delivery at `time` and returns a handle
    /// that can cancel it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`] — scheduling
    /// into the past is always a model bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "scheduled event at {time} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.seq = seq;
                s.payload = Some(payload);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(Slot {
                    seq,
                    payload: Some(payload),
                });
                i
            }
        };
        self.heap.push(HeapEntry { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.live += 1;
        EventHandle { slot, seq }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending, `false` if it had already fired or been
    /// cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(slot) if slot.seq == handle.seq && slot.payload.is_some() => {
                slot.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let head = *self.heap.first()?;
            self.remove_head();
            let payload = self.slots[head.slot as usize].payload.take();
            self.free.push(head.slot);
            if let Some(p) = payload {
                self.live -= 1;
                self.now = head.time;
                return Some((head.time, p));
            }
            // Cancelled entry: recycle the slot and keep looking.
        }
    }

    /// Removes and returns the earliest pending event strictly before
    /// `t`, or `None` if the queue is empty or its head is at or past
    /// `t`. The idiom behind every epoch-bounded event loop:
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime, SimDuration};
    /// let mut q = EventQueue::new();
    /// q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "in-epoch");
    /// q.schedule(SimTime::ZERO + SimDuration::from_secs(9), "later");
    /// let end = SimTime::ZERO + SimDuration::from_secs(5);
    /// assert_eq!(q.pop_before(end).map(|(_, e)| e), Some("in-epoch"));
    /// assert_eq!(q.pop_before(end), None, "the epoch boundary holds");
    /// assert_eq!(q.len(), 1, "later events stay queued");
    /// ```
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? < t {
            self.pop()
        } else {
            None
        }
    }

    /// Drains every pending event sharing the earliest timestamp into
    /// `batch` (cleared first), preserving schedule order within the
    /// tick, and returns that timestamp. Events scheduled *while the
    /// batch is processed* — even at the same timestamp — land in a
    /// later batch, which matches the order `pop` would have produced:
    /// their sequence numbers are higher than every event already
    /// queued at that tick.
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime, SimDuration};
    /// let mut q = EventQueue::new();
    /// let t = SimTime::ZERO + SimDuration::from_secs(1);
    /// q.schedule(t, "a");
    /// q.schedule(t + SimDuration::from_secs(1), "later");
    /// q.schedule(t, "b");
    /// let mut batch = Vec::new();
    /// assert_eq!(q.pop_batch(&mut batch), Some(t));
    /// assert_eq!(batch, vec!["a", "b"]);
    /// assert_eq!(q.len(), 1, "the later tick stays queued");
    /// ```
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        let t = self.peek_time()?;
        self.now = t;
        while let Some(&head) = self.heap.first() {
            if head.time != t {
                break;
            }
            self.remove_head();
            let payload = self.slots[head.slot as usize].payload.take();
            self.free.push(head.slot);
            if let Some(p) = payload {
                self.live -= 1;
                batch.push(p);
            }
        }
        Some(t)
    }

    /// `pop_batch` bounded by an epoch boundary: drains the earliest
    /// tick only if it lies strictly before `t`. Returns the tick's
    /// timestamp, or `None` (leaving `batch` cleared) when the queue is
    /// empty or its head is at or past `t`.
    pub fn pop_batch_before(&mut self, t: SimTime, batch: &mut Vec<E>) -> Option<SimTime> {
        if self.peek_time()? < t {
            self.pop_batch(batch)
        } else {
            batch.clear();
            None
        }
    }

    /// The time of the earliest pending event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&head) = self.heap.first() {
            if self.slots[head.slot as usize].payload.is_some() {
                return Some(head.time);
            }
            self.remove_head();
            self.free.push(head.slot);
        }
        None
    }

    /// The `(time, sequence)` key of the earliest pending event, if any,
    /// without removing it (cancelled entries at the head are discarded,
    /// as in [`EventQueue::peek_time`]). Together with
    /// [`EventQueue::next_seq`] this lets a caller merge an external,
    /// time-sorted stream into the queue's order without scheduling it:
    /// an element at `at` that would have been scheduled when the
    /// counter read `base` goes before the head exactly when
    /// `at < time || (at == time && seq >= base)`.
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime};
    /// let mut q = EventQueue::new();
    /// let h = q.schedule(SimTime::from_nanos(3), "gone");
    /// q.schedule(SimTime::from_nanos(5), "head");
    /// q.cancel(h);
    /// assert_eq!(q.peek_key(), Some((SimTime::from_nanos(5), 1)));
    /// ```
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.peek_time()?;
        self.heap.first().map(HeapEntry::key)
    }

    /// The sequence number the next [`EventQueue::schedule`] call will
    /// assign. Sequence numbers only grow, so every event scheduled from
    /// now on has a sequence number at least this large.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// One step of merging an external, time-sorted stream into the
    /// queue's order without scheduling it. `next` is the time of the
    /// stream's next element (`None` once it is exhausted) and `base`
    /// the [`EventQueue::next_seq`] value where the stream would have
    /// been scheduled. The element goes first when it is earlier than
    /// the head, or ties with a head scheduled at or after `base` (the
    /// [`EventQueue::peek_key`] rule); otherwise the head is popped if
    /// it lies before `until`. `None` ends the merge: the stream is
    /// exhausted and nothing is left before `until`.
    ///
    /// ```
    /// use simcore::{EventQueue, Merged, SimTime};
    /// let t = SimTime::from_nanos;
    /// let mut q = EventQueue::new();
    /// q.schedule(t(5), "early");
    /// let base = q.next_seq();
    /// q.schedule(t(5), "late");
    /// // A stream element at t=5 sorts after "early", before "late".
    /// assert!(matches!(q.pop_merged(Some(t(5)), base, SimTime::MAX), Some(Merged::Queue(_, "early"))));
    /// assert!(matches!(q.pop_merged(Some(t(5)), base, SimTime::MAX), Some(Merged::Stream)));
    /// assert!(matches!(q.pop_merged(None, base, t(5)), None), "the bound holds");
    /// ```
    #[inline]
    pub fn pop_merged(
        &mut self,
        next: Option<SimTime>,
        base: u64,
        until: SimTime,
    ) -> Option<Merged<E>> {
        let head = self.peek_key();
        match (next, head) {
            (Some(at), Some((t, seq))) if at < t || (at == t && seq >= base) => {
                Some(Merged::Stream)
            }
            (Some(_), None) => Some(Merged::Stream),
            (_, Some((t, _))) if t < until => self.pop().map(|(t, e)| Merged::Queue(t, e)),
            _ => None,
        }
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Discards the heap root, moving the last entry into its place.
    fn remove_head(&mut self) {
        let last = self.heap.pop().expect("remove_head on empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut min = first;
            for c in first + 1..last {
                if self.heap[c].key() < self.heap[min].key() {
                    min = c;
                }
            }
            if self.heap[min].key() >= entry.key() {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_nanos(1), "a");
        let h2 = q.schedule(SimTime::from_nanos(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), "b")));
        assert!(!q.cancel(h2), "cancel after fire reports false");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut other = EventQueue::new();
        let foreign = other.schedule(SimTime::from_nanos(1), ());
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn stale_handle_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "first");
        q.pop();
        // The slot is recycled for a new event; the old handle must not
        // reach it.
        q.schedule(SimTime::from_nanos(2), "second");
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), "second")));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "x");
        q.schedule(SimTime::from_nanos(9), "y");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn interleaved_schedule_pop_cancel_matches_reference() {
        // Drive the pooled heap against a straightforward reference model.
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::seed_from(0x5EED);
        let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (t, id, seq)
        let mut handles = Vec::new();
        let mut next_id = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let mut now = 0u64;
        for step in 0..2_000u64 {
            match rng.index(10) {
                0..=5 => {
                    let t = now + rng.index(50) as u64;
                    let h = q.schedule(SimTime::from_nanos(t), next_id);
                    handles.push((h, next_id));
                    reference.push((t, next_id, step));
                    next_id += 1;
                }
                6..=7 => {
                    if let Some((t, id)) = q.pop() {
                        popped.push(id);
                        now = t.as_nanos();
                        let (pos, _) = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, r)| (r.0, r.2))
                            .map(|(i, r)| (i, *r))
                            .unwrap();
                        expected.push(reference.remove(pos).1);
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let i = rng.index(handles.len());
                        let (h, id) = handles.swap_remove(i);
                        let in_ref = reference.iter().position(|r| r.1 == id);
                        let cancelled = q.cancel(h);
                        assert_eq!(cancelled, in_ref.is_some());
                        if let Some(pos) = in_ref {
                            reference.remove(pos);
                        }
                    }
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        assert_eq!(popped, expected);
    }

    /// `pop_batch` must yield the exact event sequence `pop` yields,
    /// chunked by timestamp, with cancellations honoured.
    #[test]
    fn batch_dispatch_matches_pop_order() {
        let build = || {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            let mut rng = crate::SimRng::seed_from(99);
            for id in 0..500u32 {
                // Deliberately few distinct ticks so batches coalesce.
                let t = SimTime::from_nanos(rng.index(40) as u64 * 10);
                handles.push(q.schedule(t, id));
            }
            // Cancel every seventh event, including some whole ticks.
            for (i, h) in handles.iter().enumerate() {
                if i % 7 == 0 {
                    q.cancel(*h);
                }
            }
            q
        };
        let mut by_pop = Vec::new();
        let mut q = build();
        while let Some((t, id)) = q.pop() {
            by_pop.push((t, id));
        }
        let mut by_batch = Vec::new();
        let mut q = build();
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            assert!(!batch.is_empty(), "batch at {t} is empty");
            by_batch.extend(batch.iter().map(|&id| (t, id)));
        }
        assert_eq!(by_pop, by_batch);
        assert!(q.is_empty());
    }

    /// Events scheduled during a batch — even at the batch's own
    /// timestamp — must surface in a later batch, exactly as `pop`
    /// would order them.
    #[test]
    fn batch_dispatch_defers_same_tick_reschedules() {
        let t = SimTime::from_nanos(100);
        let mut q = EventQueue::new();
        q.schedule(t, 0u32);
        q.schedule(t, 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, vec![0, 1]);
        // A handler reacting to the batch schedules more work at `now`.
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, vec![2, 3]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    /// Merging a sorted external stream with `pop_merged` (the rule both
    /// flow-level loops run) must reproduce the order of scheduling that stream into the
    /// queue, across exact-time ties with events scheduled before the
    /// stream's base, after it (up front and while the merge runs), and
    /// cancelled ones.
    #[test]
    fn merged_stream_matches_scheduled_order() {
        type Item = (bool, u32); // (is stream element, id or index)
                                 // Every first-generation delivery schedules a follow-up at the
                                 // same or a later tick, as an event loop's handlers do.
        fn react(q: &mut EventQueue<Item>, now: SimTime, (stream, id): Item) {
            if id < 5000 && id % 2 == 0 {
                let follow = if stream { 5000 + id } else { 6000 + id };
                q.schedule(
                    now + SimDuration::from_nanos(u64::from(id % 3) * 10),
                    (false, follow),
                );
            }
        }
        fn schedule_all(
            q: &mut EventQueue<Item>,
            evs: &[(SimTime, u32, bool)],
        ) -> Vec<EventHandle> {
            evs.iter()
                .filter_map(|&(t, id, c)| {
                    let h = q.schedule(t, (false, id));
                    c.then_some(h)
                })
                .collect()
        }
        for round in 0..300u64 {
            let mut rng = crate::SimRng::seed_from(0xA11 + round);
            // Coarse timestamps make exact-time ties common.
            let mut draw = |n: usize, id0: u32| -> Vec<(SimTime, u32, bool)> {
                (0..n)
                    .map(|i| {
                        let t = SimTime::from_nanos(rng.index(12) as u64 * 10);
                        (t, id0 + i as u32, rng.index(4) == 0)
                    })
                    .collect()
            };
            let before = draw(30, 0);
            let mut stream: Vec<SimTime> = draw(30, 0).into_iter().map(|e| e.0).collect();
            stream.sort();
            let after = draw(30, 1000);

            // Reference: the stream scheduled in order at its base.
            let mut q = EventQueue::new();
            let mut cancel = schedule_all(&mut q, &before);
            for (i, &t) in stream.iter().enumerate() {
                q.schedule(t, (true, i as u32));
            }
            cancel.extend(schedule_all(&mut q, &after));
            for h in cancel {
                q.cancel(h);
            }
            let mut reference = Vec::new();
            while let Some((now, item)) = q.pop() {
                react(&mut q, now, item);
                reference.push((now, item));
            }

            // Merge: the stream never enters the queue.
            let mut q = EventQueue::new();
            let mut cancel = schedule_all(&mut q, &before);
            let base = q.next_seq();
            cancel.extend(schedule_all(&mut q, &after));
            for h in cancel {
                q.cancel(h);
            }
            let mut merged = Vec::new();
            let mut next = 0;
            while let Some(step) = q.pop_merged(stream.get(next).copied(), base, SimTime::MAX) {
                let (now, item) = match step {
                    Merged::Stream => {
                        next += 1;
                        (stream[next - 1], (true, next as u32 - 1))
                    }
                    Merged::Queue(t, item) => (t, item),
                };
                react(&mut q, now, item);
                merged.push((now, item));
            }
            assert_eq!(merged, reference, "round {round}");
        }
    }

    #[test]
    fn batch_before_respects_boundary() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 'a');
        q.schedule(SimTime::from_nanos(5), 'b');
        q.schedule(SimTime::from_nanos(9), 'c');
        let mut batch = vec!['x'];
        assert_eq!(
            q.pop_batch_before(SimTime::from_nanos(9), &mut batch),
            Some(SimTime::from_nanos(5))
        );
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.pop_batch_before(SimTime::from_nanos(9), &mut batch), None);
        assert!(batch.is_empty(), "miss clears the batch buffer");
        assert_eq!(q.len(), 1);
    }
}
