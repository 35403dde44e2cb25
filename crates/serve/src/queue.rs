//! The bounded admission queue between the reactor and one shard's lanes.
//!
//! The reactor `push`es (non-blocking: a full queue is an immediate typed
//! error back to the client, never a hang) — or [`Admission::push_group`]s
//! a whole pipelined burst under one lock — and the shard's lanes
//! [`Admission::pop`] (blocking), one item each. An item may carry a
//! **key** ([`Keyed`]): a pop takes the *first* queued item whose key no
//! popped item still holds, and the key is held until that item's
//! [`Claim`] drops. Same-key items therefore run one at a time in
//! admission order, while unkeyed items never wait behind a busy key.
//! Closing the queue stops admission while letting the lanes drain what
//! was already admitted — the mechanism behind graceful shutdown.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue holds `capacity` items; the client should retry later.
    Full,
    /// The queue was closed for admission (server draining).
    Closed,
}

/// An item's exclusivity key: two popped items with the same key are
/// never held at once. `None` runs beside anything.
pub trait Keyed {
    /// The key, if any.
    fn key(&self) -> Option<&str>;
}

struct State<T> {
    items: VecDeque<T>,
    /// Keys of popped items whose claims are still alive (at most one per
    /// lane, so a scan beats hashing).
    held: Vec<String>,
    /// Consumers blocked in [`Admission::pop`].
    waiting: usize,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with keyed pops and a
/// close switch.
pub struct Admission<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Queue state is a plain VecDeque + key list + flags, coherent at
    // every step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Admission<T> {
    /// An open queue admitting at most `capacity` (≥ 1) queued items.
    pub fn new(capacity: usize) -> Self {
        Admission {
            state: Mutex::new(State {
                items: VecDeque::new(),
                held: Vec::new(),
                waiting: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; for metrics and tests).
    pub fn depth(&self) -> usize {
        relock(&self.state).items.len()
    }

    /// Admits `item`, or refuses immediately — never blocks.
    ///
    /// # Errors
    ///
    /// Returns the item back together with the reason so the caller can
    /// answer the client without re-parsing.
    pub fn push(&self, item: T) -> Result<(), (T, AdmitError)> {
        match self.push_group(vec![item]).pop() {
            Some(refused) => Err(refused),
            None => Ok(()),
        }
    }

    /// Admits every item of `group` that fits under **one** lock
    /// acquisition (the pipelined fast path: a burst of requests already
    /// sitting on a socket becomes one queue transaction, not one per
    /// request), returning the refused items with their reasons, in
    /// order. The queue only grows under the lock and `closed` cannot
    /// flip, so the refused items are always a suffix of `group`. Wakes
    /// at most one blocked consumer per admitted item.
    pub fn push_group(&self, group: Vec<T>) -> Vec<(T, AdmitError)> {
        let mut rejected = Vec::new();
        let wake = {
            let mut state = relock(&self.state);
            let before = state.items.len();
            for item in group {
                if state.closed {
                    rejected.push((item, AdmitError::Closed));
                } else if state.items.len() >= self.capacity {
                    rejected.push((item, AdmitError::Full));
                } else {
                    state.items.push_back(item);
                }
            }
            (state.items.len() - before).min(state.waiting)
        };
        for _ in 0..wake {
            self.ready.notify_one();
        }
        rejected
    }

    /// Closes the queue for admission and wakes every consumer. Items
    /// already queued remain poppable (drain semantics).
    pub fn close(&self) {
        relock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

impl<T: Keyed> Admission<T> {
    /// Blocks until an item whose key is free is queued, then removes the
    /// first such item in admission order and holds its key until the
    /// returned [`Claim`] drops. `None` means: closed and fully drained.
    pub fn pop(&self) -> Option<Claim<'_, T>> {
        let mut state = relock(&self.state);
        loop {
            let s = &mut *state;
            let free = s.items.iter().position(|item| match item.key() {
                Some(key) => !s.held.iter().any(|h| h == key),
                None => true,
            });
            if let Some(position) = free {
                let item = s.items.remove(position).expect("position is in range");
                if let Some(key) = item.key() {
                    s.held.push(key.to_owned());
                }
                if s.closed && s.items.is_empty() && s.waiting > 0 {
                    // Drained: consumers parked behind a held key have
                    // nothing left to wait for.
                    self.ready.notify_all();
                }
                return Some(Claim { queue: self, item });
            }
            if s.items.is_empty() && s.closed {
                return None;
            }
            s.waiting += 1;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Frees `key` and wakes one blocked consumer if a queued item was
    /// waiting for it.
    fn release(&self, key: &str) {
        let wake = {
            let mut state = relock(&self.state);
            if let Some(slot) = state.held.iter().position(|h| h == key) {
                state.held.swap_remove(slot);
            }
            state.waiting > 0 && state.items.iter().any(|item| item.key() == Some(key))
        };
        if wake {
            self.ready.notify_one();
        }
    }
}

/// A popped item. Its key stays held — no other item with the same key
/// can be popped — until the claim drops, also when unwinding.
pub struct Claim<'q, T: Keyed> {
    queue: &'q Admission<T>,
    item: T,
}

impl<T: Keyed> Deref for Claim<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.item
    }
}

impl<T: Keyed> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        if let Some(key) = self.item.key() {
            self.queue.release(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    impl Keyed for u32 {
        fn key(&self) -> Option<&str> {
            None
        }
    }

    /// An item with an optional session key.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item(u32, Option<&'static str>);

    impl Keyed for Item {
        fn key(&self) -> Option<&str> {
            self.1
        }
    }

    /// Pops one item and drops its claim at once.
    fn take<T: Keyed + Copy>(q: &Admission<T>) -> Option<T> {
        q.pop().map(|claim| *claim)
    }

    /// Runs `take` `pops` times on another thread; the results arrive on
    /// the returned channel.
    fn spawn_taker<T: Keyed + Copy + Send + 'static>(
        q: &Arc<Admission<T>>,
        pops: usize,
    ) -> mpsc::Receiver<Option<T>> {
        let (tx, rx) = mpsc::channel();
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            for _ in 0..pops {
                tx.send(take(&q)).unwrap();
            }
        });
        rx
    }

    /// Blocks until `parked` consumers, the last of them feeding
    /// `popped`, are parked inside `pop`; fails if it returns instead.
    fn until_blocked<T: std::fmt::Debug>(
        q: &Admission<T>,
        popped: &mpsc::Receiver<Option<T>>,
        parked: usize,
    ) {
        loop {
            // Read before the channel: a value sent ahead of the park is
            // then already visible.
            let all_parked = relock(&q.state).waiting >= parked;
            if let Ok(early) = popped.try_recv() {
                panic!("pop returned {early:?} instead of blocking");
            }
            if all_parked {
                return;
            }
            std::thread::yield_now();
        }
    }

    const PATIENCE: Duration = Duration::from_secs(30);

    #[test]
    fn push_refuses_when_full_and_returns_the_item() {
        let q = Admission::new(2);
        q.push(1u32).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.depth(), 2);
        let (item, err) = q.push(3).unwrap_err();
        assert_eq!((item, err), (3, AdmitError::Full));
        // Popping frees capacity again.
        assert_eq!(take(&q), Some(1));
        q.push(3).unwrap();
        assert_eq!((take(&q), take(&q)), (Some(2), Some(3)));
    }

    #[test]
    fn close_refuses_new_items_but_drains_queued_ones() {
        let q = Admission::new(4);
        q.push(7u32).unwrap();
        q.close();
        let (_, err) = q.push(8).unwrap_err();
        assert_eq!(err, AdmitError::Closed);
        assert_eq!(take(&q), Some(7));
        assert!(q.pop().is_none(), "closed + drained pops None");
    }

    #[test]
    fn push_group_admits_what_fits_and_returns_the_rest() {
        let q = Admission::new(3);
        q.push(0u32).unwrap();
        let rejected = q.push_group(vec![1, 2, 3, 4]);
        assert_eq!(rejected, vec![(3, AdmitError::Full), (4, AdmitError::Full)]);
        assert_eq!((take(&q), take(&q), take(&q)), (Some(0), Some(1), Some(2)));
        q.close();
        let rejected = q.push_group(vec![9]);
        assert_eq!(rejected, vec![(9, AdmitError::Closed)]);
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let q = Arc::new(Admission::new(4));
        let popped = spawn_taker(&q, 1);
        until_blocked(&q, &popped, 1);
        q.push(42u32).unwrap();
        assert_eq!(popped.recv_timeout(PATIENCE).unwrap(), Some(42));
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q: Arc<Admission<u32>> = Arc::new(Admission::new(4));
        let popped = spawn_taker(&q, 1);
        until_blocked(&q, &popped, 1);
        q.close();
        assert_eq!(popped.recv_timeout(PATIENCE).unwrap(), None);
    }

    #[test]
    fn a_busy_session_is_skipped_but_a_later_stateless_job_is_popped() {
        let q = Admission::new(8);
        q.push_group(vec![Item(0, Some("s")), Item(1, Some("s")), Item(2, None)]);
        let first = q.pop().unwrap();
        assert_eq!(*first, Item(0, Some("s")));
        // "s" is held: its second job waits, the stateless one does not.
        assert_eq!(take(&q), Some(Item(2, None)));
        assert_eq!(q.depth(), 1);
        drop(first);
        assert_eq!(take(&q), Some(Item(1, Some("s"))));
    }

    #[test]
    fn same_session_jobs_pop_in_admission_order_and_are_never_held_twice() {
        let q = Arc::new(Admission::new(64));
        let sessions = ["a", "b", "c"];
        q.push_group((0..30).map(|i| Item(i, Some(sessions[i as usize % 3]))).collect());
        q.close();
        let running: Arc<Mutex<Vec<&'static str>>> = Arc::default();
        let order: Arc<Mutex<Vec<Item>>> = Arc::default();
        let (done, finished) = mpsc::channel();
        let lanes: Vec<_> = (0..4)
            .map(|_| {
                let (q, running, order) =
                    (Arc::clone(&q), Arc::clone(&running), Arc::clone(&order));
                let done = done.clone();
                std::thread::spawn(move || {
                    while let Some(claim) = q.pop() {
                        let key = claim.1.unwrap();
                        {
                            let mut running = running.lock().unwrap();
                            assert!(!running.contains(&key), "session {key} held twice");
                            running.push(key);
                            order.lock().unwrap().push(*claim);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                        running.lock().unwrap().retain(|k| *k != key);
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        // A lost wakeup leaves a lane parked forever: fail, do not hang.
        for _ in &lanes {
            finished.recv_timeout(PATIENCE).expect("a lane never finished draining");
        }
        for lane in lanes {
            lane.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 30, "every job popped exactly once");
        for session in sessions {
            let ids: Vec<u32> =
                order.iter().filter(|i| i.1 == Some(session)).map(|i| i.0).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{session}: {ids:?}");
        }
    }

    #[test]
    fn a_release_wakes_a_waiting_lane() {
        let q = Arc::new(Admission::new(4));
        q.push_group(vec![Item(0, Some("s")), Item(1, Some("s"))]);
        let first = q.pop().unwrap();
        // The waiter finds only a job whose key is held, so it parks; no
        // push follows, so only the release can wake it.
        let popped = spawn_taker(&q, 1);
        until_blocked(&q, &popped, 1);
        drop(first);
        assert_eq!(popped.recv_timeout(PATIENCE).unwrap(), Some(Item(1, Some("s"))));
    }

    #[test]
    fn a_closed_queue_returns_none_only_once_drained() {
        let q = Arc::new(Admission::new(4));
        q.push_group(vec![Item(0, Some("s")), Item(1, Some("s"))]);
        let first = q.pop().unwrap();
        q.close();
        // Closed but not drained: the held session's second job is still
        // owed, so both lanes park instead of returning None.
        let a = spawn_taker(&q, 1);
        until_blocked(&q, &a, 1);
        let b = spawn_taker(&q, 1);
        until_blocked(&q, &b, 2);
        // The release wakes one lane for the last job; taking it drains
        // the queue, which must wake the other with None.
        drop(first);
        let got = [a.recv_timeout(PATIENCE).unwrap(), b.recv_timeout(PATIENCE).unwrap()];
        assert!(got.contains(&Some(Item(1, Some("s")))) && got.contains(&None), "{got:?}");
    }
}
