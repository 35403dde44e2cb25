//! Session-pinned instances: the server-side half of the warm-start
//! delta path.
//!
//! A `create` verb pins an [`Instance`] plus its [`WarmCache`] under a
//! client-chosen name; `mutate` applies a [`distfl_instance::DeltaBatch`]
//! and keeps the warm structures in sync; a session `solve` dispatches
//! through [`distfl_core::SolverKind::solve_warm`], which is
//! bit-identical to a cold solve of the same instance — so pinning is
//! purely a performance choice, never a semantic one.
//!
//! The cache is a slab guarded by one mutex: the slab lock covers only
//! name → slot resolution (cheap), while each slot holds its state behind
//! its own `Arc<Mutex<_>>` so a long solve on one session never blocks
//! lookups or work on another. Capacity is LRU-bounded: creating a new
//! session at capacity evicts the least-recently-touched one (clients
//! observe that as `unknown_session` on their next verb — the same
//! response an explicit `drop` would produce). On shutdown the server
//! drains every admitted request first, then [`SessionCache::clear`]s the
//! slab, so no in-flight session job ever observes a vanishing session.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use distfl_core::warm::WarmCache;
use distfl_instance::Instance;

/// One pinned session: the current instance, the warm solver structures
/// kept in sync with it, and a mutation epoch.
#[derive(Debug)]
pub struct SessionState {
    /// The session's current instance.
    pub instance: Instance,
    /// Warm solver structures tracking `instance` delta-for-delta.
    pub warm: WarmCache,
    /// Mutation epoch: 0 at create, +1 per applied delta.
    pub epoch: u64,
}

impl SessionState {
    /// Pins `instance` with freshly built warm structures at epoch 0.
    pub fn new(instance: Instance) -> Self {
        let warm = WarmCache::new(&instance);
        SessionState { instance, warm, epoch: 0 }
    }
}

/// A shared handle to one session's state. Same-session requests on one
/// shard are serialized by its queue's keyed pop; the mutex covers the remaining
/// cross-shard races (two connections naming the same session).
pub type SessionHandle = Arc<Mutex<SessionState>>;

struct Slot {
    name: String,
    /// Logical LRU timestamp (slab clock tick of the last touch).
    last_used: u64,
    state: SessionHandle,
}

/// Slab storage: stable indices, freelist reuse, name index.
struct Slab {
    entries: Vec<Option<Slot>>,
    by_name: HashMap<String, usize>,
    free: Vec<usize>,
    clock: u64,
    capacity: usize,
}

impl Slab {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Index of the least-recently-used live slot, if any.
    fn lru(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|s| (index, s.last_used)))
            .min_by_key(|&(_, used)| used)
            .map(|(index, _)| index)
    }

    fn remove(&mut self, index: usize) {
        if let Some(slot) = self.entries[index].take() {
            self.by_name.remove(&slot.name);
            self.free.push(index);
        }
    }
}

/// The LRU-bounded slab of pinned sessions, shared by every shard.
pub struct SessionCache {
    slab: Mutex<Slab>,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SessionCache {
            slab: Mutex::new(Slab {
                entries: Vec::new(),
                by_name: HashMap::new(),
                free: Vec::new(),
                clock: 0,
                capacity,
            }),
        }
    }

    /// The configured session limit.
    pub fn capacity(&self) -> usize {
        self.slab.lock().unwrap().capacity
    }

    /// How many sessions are currently pinned.
    pub fn len(&self) -> usize {
        self.slab.lock().unwrap().by_name.len()
    }

    /// Whether no session is pinned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pins `instance` under `name`, replacing any previous instance held
    /// there. Returns the session handle and whether an existing session
    /// was replaced. At capacity, creating a *new* name evicts the
    /// least-recently-touched session first.
    pub fn create(&self, name: &str, instance: Instance) -> (SessionHandle, bool) {
        let state: SessionHandle = Arc::new(Mutex::new(SessionState::new(instance)));
        let mut slab = self.slab.lock().unwrap();
        let now = slab.tick();
        if let Some(&index) = slab.by_name.get(name) {
            let slot = slab.entries[index].as_mut().expect("indexed slot is live");
            slot.last_used = now;
            slot.state = Arc::clone(&state);
            return (state, true);
        }
        if slab.by_name.len() >= slab.capacity {
            if let Some(victim) = slab.lru() {
                slab.remove(victim);
            }
        }
        let slot = Slot { name: name.to_owned(), last_used: now, state: Arc::clone(&state) };
        let index = match slab.free.pop() {
            Some(index) => {
                slab.entries[index] = Some(slot);
                index
            }
            None => {
                slab.entries.push(Some(slot));
                slab.entries.len() - 1
            }
        };
        slab.by_name.insert(name.to_owned(), index);
        (state, false)
    }

    /// Resolves `name` to its session handle, bumping its LRU position.
    pub fn get(&self, name: &str) -> Option<SessionHandle> {
        let mut slab = self.slab.lock().unwrap();
        let now = slab.tick();
        let index = *slab.by_name.get(name)?;
        let slot = slab.entries[index].as_mut().expect("indexed slot is live");
        slot.last_used = now;
        Some(Arc::clone(&slot.state))
    }

    /// Releases the session under `name`; returns whether it existed.
    pub fn drop_session(&self, name: &str) -> bool {
        let mut slab = self.slab.lock().unwrap();
        match slab.by_name.get(name).copied() {
            Some(index) => {
                slab.remove(index);
                true
            }
            None => false,
        }
    }

    /// Releases every session — the shutdown drain's final step, called
    /// after every shard's lanes have finished so no in-flight job holds
    /// a handle.
    pub fn clear(&self) {
        let mut slab = self.slab.lock().unwrap();
        slab.entries.clear();
        slab.by_name.clear();
        slab.free.clear();
    }
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slab = self.slab.lock().unwrap();
        f.debug_struct("SessionCache")
            .field("len", &slab.by_name.len())
            .field("capacity", &slab.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};

    fn instance(seed: u64) -> Instance {
        UniformRandom::new(3, 8).unwrap().generate(seed).unwrap()
    }

    #[test]
    fn create_get_drop_round_trip() {
        let cache = SessionCache::new(4);
        assert!(cache.is_empty());
        let (handle, replaced) = cache.create("a", instance(1));
        assert!(!replaced);
        assert_eq!(cache.len(), 1);
        let again = cache.get("a").unwrap();
        assert!(Arc::ptr_eq(&handle, &again));
        assert_eq!(again.lock().unwrap().epoch, 0);
        assert!(cache.get("b").is_none());
        assert!(cache.drop_session("a"));
        assert!(!cache.drop_session("a"), "second drop reports missing");
        assert!(cache.is_empty());
    }

    #[test]
    fn create_replaces_in_place() {
        let cache = SessionCache::new(4);
        let (first, _) = cache.create("a", instance(1));
        let (second, replaced) = cache.create("a", instance(2));
        assert!(replaced);
        assert!(!Arc::ptr_eq(&first, &second), "replacement builds fresh state");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_the_coldest_session() {
        let cache = SessionCache::new(2);
        cache.create("a", instance(1));
        cache.create("b", instance(2));
        // Touch "a" so "b" is the LRU victim.
        cache.get("a").unwrap();
        cache.create("c", instance(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "LRU session evicted");
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn freelist_reuses_slots() {
        let cache = SessionCache::new(8);
        for round in 0..3 {
            cache.create("x", instance(round));
            assert!(cache.drop_session("x"));
        }
        let slab = cache.slab.lock().unwrap();
        assert!(slab.entries.len() <= 1, "dropped slots are reused, not appended");
    }

    #[test]
    fn clear_releases_everything() {
        let cache = SessionCache::new(4);
        cache.create("a", instance(1));
        cache.create("b", instance(2));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }
}
