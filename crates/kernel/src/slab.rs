//! A minimal generational slab: dense, reusable storage with stable handles.
//!
//! Hot simulation paths want integer handles instead of hash maps: a
//! [`SlabKey`] is two machine words, lookups are a bounds check plus a
//! generation compare, and freed slots are recycled in LIFO order so the
//! backing vector stays compact. The generation counter makes stale handles
//! (keys kept across a `remove`) miss instead of aliasing a new occupant.

/// Handle to a slot in a [`Slab`].
///
/// Keys are `Copy` and cheap to store in event queues or entity tables. A key
/// becomes stale once its slot is removed; stale keys return `None` from all
/// accessors rather than observing a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// Raw slot index (useful only for diagnostics; do not fabricate keys).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Dense generational arena keyed by [`SlabKey`].
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Empty slab with room for `cap` values before reallocating.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Remove every value and forget every key, keeping the allocations:
    /// the slab is then indistinguishable from [`Slab::new`].
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value`, returning its handle.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` slots would be required.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free-list slot must be vacant");
            slot.value = Some(value);
            SlabKey {
                index,
                generation: slot.generation,
            }
        } else {
            // wrht-analyze: allow(r5, reason = "4 billion live events exceeds any feasible simulation; a typed error here would poison every schedule call site for an impossible case")
            let index = u32::try_from(self.slots.len()).expect("slab capacity exceeds u32::MAX");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            SlabKey {
                index,
                generation: 0,
            }
        }
    }

    /// Remove and return the value behind `key`, or `None` if `key` is stale.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let value = slot.value.take()?;
        // Bump the generation on removal so outstanding copies of `key` go
        // stale; wrapping keeps the slot usable even after u32::MAX cycles.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        Some(value)
    }

    /// Borrow the value behind `key`, or `None` if `key` is stale.
    #[must_use]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let slot = self.slots.get(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutably borrow the value behind `key`, or `None` if `key` is stale.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Whether `key` currently refers to a live value.
    #[must_use]
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.remove(b), Some("b"));
        assert!(slab.is_empty());
    }

    #[test]
    fn stale_keys_do_not_alias_recycled_slots() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // Slot is recycled (same index), but the stale key must miss.
        assert_eq!(a.index(), b.index());
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&2));
    }

    #[test]
    fn clear_forgets_every_key_and_restarts_like_new() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.get(b), None);
        // Keys are handed out exactly as a fresh slab hands them out.
        let mut fresh = Slab::new();
        assert_eq!(slab.insert(3), fresh.insert(3));
        assert_eq!(slab.insert(4), fresh.insert(4));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(10);
        *slab.get_mut(k).unwrap() += 5;
        assert_eq!(slab.remove(k), Some(15));
    }

    #[test]
    fn free_slots_are_reused_before_growing() {
        let mut slab = Slab::with_capacity(4);
        let keys: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        for &k in &keys {
            slab.remove(k);
        }
        for i in 0..4 {
            let k = slab.insert(i);
            assert!(k.index() < 4, "expected recycled slot, got {}", k.index());
        }
        assert_eq!(slab.len(), 4);
    }
}
