//! The shared latest-`W` window-selection state, factored out of the
//! batch split path so the batch benchmark and the online serving path
//! score *the same* windows by construction.
//!
//! * [`WindowBuffer`] — one user's trailing window: the `W` largest
//!   `(created, post_id)` keys seen so far, kept in ascending order.
//!   Feeding a user's full timeline through it reproduces the batch
//!   tail-slice selection byte-for-byte, because
//!   [`DatasetBuilder`](crate::builder::DatasetBuilder) sorts timelines
//!   by exactly that key.
//! * [`UserWindowStore`] — a sharded, memory-bounded map of user →
//!   [`WindowBuffer`] with a deterministic hot-user LRU per shard.
//!   Shard assignment is `user % n_shards` and eviction order is a
//!   logical insertion clock, so the resident set after any item
//!   sequence is a pure function of that sequence — independent of
//!   thread count or wall-clock timing.

use std::collections::{BTreeMap, HashMap};

use rsd_common::Timestamp;

/// One retained post in a user's trailing window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEntry<T> {
    /// Post creation time (primary sort key).
    pub created: Timestamp,
    /// Post id (tie-break key; unique per post).
    pub id: u32,
    /// Caller payload (post index for the batch path, post text for the
    /// serving path).
    pub payload: T,
}

/// A user's trailing window: the `cap` largest `(created, id)` keys seen
/// so far, in ascending order. Mirrors the batch path's "sort timeline by
/// `(created, id)`, take the tail slice" selection incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowBuffer<T> {
    cap: usize,
    entries: Vec<WindowEntry<T>>,
    total_seen: u64,
}

impl<T> WindowBuffer<T> {
    /// Empty buffer retaining at most `cap` (min 1) posts.
    pub fn new(cap: usize) -> WindowBuffer<T> {
        let cap = cap.max(1);
        WindowBuffer {
            cap,
            entries: Vec::with_capacity(cap + 1),
            total_seen: 0,
        }
    }

    /// Observe one post. Inserts in key order and evicts the smallest
    /// key when past capacity, so the retained set is always the top
    /// `cap` by `(created, id)` — regardless of arrival order. Returns
    /// the evicted entry, if any. A key already retained is a redelivery
    /// (a replayed stream re-sends it): it changes neither the window nor
    /// [`total_seen`](Self::total_seen).
    pub fn observe(&mut self, created: Timestamp, id: u32, payload: T) -> Option<WindowEntry<T>> {
        let key = (created.0, id);
        let pos = self.entries.partition_point(|e| (e.created.0, e.id) < key);
        if self
            .entries
            .get(pos)
            .is_some_and(|e| (e.created.0, e.id) == key)
        {
            return None;
        }
        self.total_seen += 1;
        self.entries.insert(
            pos,
            WindowEntry {
                created,
                id,
                payload,
            },
        );
        if self.entries.len() > self.cap {
            Some(self.entries.remove(0))
        } else {
            None
        }
    }

    /// The retained window, ascending by `(created, id)` — i.e.
    /// chronological, matching the batch `UserWindow` layout.
    pub fn entries(&self) -> &[WindowEntry<T>] {
        &self.entries
    }

    /// Number of posts currently retained (`≤ cap`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Window capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Total posts observed (retained or not) since creation.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Timestamps of the retained window, chronological.
    pub fn timestamps(&self) -> Vec<Timestamp> {
        self.entries.iter().map(|e| e.created).collect()
    }
}

/// One item for the store: a post event keyed by user.
#[derive(Debug, Clone)]
pub struct StoreItem<T> {
    /// Owning user (shard key).
    pub user: u32,
    /// Post creation time.
    pub created: Timestamp,
    /// Post id (unique tie-break).
    pub id: u32,
    /// Payload stored in the user's window.
    pub payload: T,
}

struct UserState<T> {
    buffer: WindowBuffer<T>,
    stamp: u64,
}

struct StoreShard<T> {
    users: HashMap<u32, UserState<T>>,
    /// Logical-clock LRU: smallest stamp = least recently touched.
    lru: BTreeMap<u64, u32>,
    clock: u64,
    evicted: u64,
    peak_users: usize,
}

impl<T> StoreShard<T> {
    fn new() -> StoreShard<T> {
        StoreShard {
            users: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            evicted: 0,
            peak_users: 0,
        }
    }

    fn apply(&mut self, item: StoreItem<T>, window: usize, cap_users: usize) {
        self.clock += 1;
        let stamp = self.clock;
        let state = self.users.entry(item.user).or_insert_with(|| UserState {
            buffer: WindowBuffer::new(window),
            stamp: 0,
        });
        if state.stamp != 0 {
            self.lru.remove(&state.stamp);
        }
        state.stamp = stamp;
        state.buffer.observe(item.created, item.id, item.payload);
        self.lru.insert(stamp, item.user);
        while self.users.len() > cap_users {
            let (&oldest, &victim) = self.lru.iter().next().expect("lru tracks every user");
            self.lru.remove(&oldest);
            self.users.remove(&victim);
            self.evicted += 1;
        }
        self.peak_users = self.peak_users.max(self.users.len());
    }
}

/// Per-shard work unit for `apply_batch_map_with`: the shard, its
/// submission-ordered `(index, item)` queue, and the mapped results.
type ShardWork<'a, T, R> = (
    &'a mut StoreShard<T>,
    Vec<(usize, StoreItem<T>)>,
    Vec<(usize, R)>,
);

/// A sharded, memory-bounded user → [`WindowBuffer`] store with
/// deterministic LRU eviction. The serving substrate's per-key state; the
/// batch path shares its [`WindowBuffer`] selection core.
pub struct UserWindowStore<T> {
    shards: Vec<StoreShard<T>>,
    window: usize,
    cap_per_shard: usize,
}

impl<T: Send> UserWindowStore<T> {
    /// Store with `n_shards` shards (min 1), per-user window size
    /// `window`, and at most `lru_capacity` resident users overall
    /// (split evenly across shards, min 1 per shard).
    pub fn new(n_shards: usize, window: usize, lru_capacity: usize) -> UserWindowStore<T> {
        let n_shards = n_shards.max(1);
        UserWindowStore {
            shards: (0..n_shards).map(|_| StoreShard::new()).collect(),
            window: window.max(1),
            cap_per_shard: (lru_capacity / n_shards).max(1),
        }
    }

    /// Shard index owning `user`.
    pub(crate) fn shard_of(&self, user: u32) -> usize {
        (user as usize) % self.shards.len()
    }

    /// Ingest one post event.
    pub fn apply(&mut self, item: StoreItem<T>) {
        let shard = self.shard_of(item.user);
        let (window, cap) = (self.window, self.cap_per_shard);
        self.shards[shard].apply(item, window, cap);
    }

    /// The user's current window, if resident.
    pub fn buffer(&self, user: u32) -> Option<&WindowBuffer<T>> {
        self.shards[self.shard_of(user)]
            .users
            .get(&user)
            .map(|s| &s.buffer)
    }

    /// Ingest a batch, sharded across the `rsd-par` pool, and map each
    /// item's post-update window through `f(user, buffer, apply_ns,
    /// scratch)`, returning results in submission order. `apply_ns` is
    /// the wall-clock nanoseconds the store spent applying that item (LRU
    /// bookkeeping + window push), so request-scoped tracing can
    /// attribute window-update time without a second clock read around
    /// the whole batch. `scratch` is a per-shard reusable workspace
    /// (feature buffers, row vectors) constructed via `Default` once per
    /// shard per call. Items for the same shard are applied in submission
    /// order, so the final state is identical to serial
    /// [`apply`](UserWindowStore::apply) calls and results are
    /// bit-identical across thread counts.
    pub fn apply_batch_map_with<R, S, F>(&mut self, items: Vec<StoreItem<T>>, f: F) -> Vec<R>
    where
        R: Send,
        S: Default,
        F: Fn(u32, &WindowBuffer<T>, u64, &mut S) -> R + Sync,
    {
        let n = items.len();
        let n_shards = self.shards.len();
        let mut per_shard: Vec<Vec<(usize, StoreItem<T>)>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        for (idx, item) in items.into_iter().enumerate() {
            per_shard[(item.user as usize) % n_shards].push((idx, item));
        }

        let window = self.window;
        let cap = self.cap_per_shard;
        let mut work: Vec<ShardWork<'_, T, R>> = self
            .shards
            .iter_mut()
            .zip(per_shard)
            .map(|(shard, items)| (shard, items, Vec::new()))
            .collect();

        rsd_par::parallel_chunks_mut(&mut work, 1, |_start, chunk| {
            for (shard, items, out) in chunk.iter_mut() {
                let mut scratch = S::default();
                out.reserve(items.len());
                for (idx, item) in items.drain(..) {
                    let user = item.user;
                    let t0 = std::time::Instant::now();
                    shard.apply(item, window, cap);
                    let apply_ns = t0.elapsed().as_nanos() as u64;
                    let state = shard.users.get(&user).expect("just applied");
                    out.push((idx, f(user, &state.buffer, apply_ns, &mut scratch)));
                }
            }
        });

        // Stitch per-shard results back into submission order (serial,
        // ascending shard order — deterministic).
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (_, _, out) in work {
            for (idx, r) in out {
                results[idx] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every item mapped"))
            .collect()
    }

    /// Users currently resident across all shards.
    pub fn resident_users(&self) -> usize {
        self.shards.iter().map(|s| s.users.len()).sum()
    }

    /// Total LRU evictions so far.
    pub fn evicted_users(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted).sum()
    }

    /// Sum of per-shard peak resident users — an upper bound on peak
    /// total residency, and deterministic.
    pub fn peak_resident_users(&self) -> usize {
        self.shards.iter().map(|s| s.peak_users).sum()
    }

    /// Per-user window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(user: u32, t: i64, id: u32) -> StoreItem<u32> {
        StoreItem {
            user,
            created: Timestamp(t),
            id,
            payload: id,
        }
    }

    #[test]
    fn buffer_keeps_top_w_regardless_of_arrival_order() {
        let mut chrono = WindowBuffer::new(3);
        let mut shuffled = WindowBuffer::new(3);
        let posts = [(10, 1), (20, 2), (20, 3), (30, 4), (40, 5)];
        for &(t, id) in &posts {
            chrono.observe(Timestamp(t), id, id);
        }
        for &i in &[3usize, 0, 4, 1, 2] {
            let (t, id) = posts[i];
            shuffled.observe(Timestamp(t), id, id);
        }
        assert_eq!(chrono, shuffled);
        let kept: Vec<u32> = chrono.entries().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        assert_eq!(chrono.total_seen(), 5);
        assert_eq!(chrono.len(), 3);
    }

    #[test]
    fn buffer_tie_breaks_on_post_id() {
        let mut b = WindowBuffer::new(2);
        b.observe(Timestamp(10), 7, ());
        b.observe(Timestamp(10), 3, ());
        b.observe(Timestamp(10), 5, ());
        let kept: Vec<u32> = b.entries().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![5, 7], "same timestamp orders by id");
    }

    #[test]
    fn buffer_ignores_redelivered_retained_key() {
        let mut b = WindowBuffer::new(3);
        for (t, id) in [(10, 1), (20, 2), (30, 3)] {
            b.observe(Timestamp(t), id, id);
        }
        let before = b.clone();
        assert_eq!(b.observe(Timestamp(20), 2, 99), None);
        assert_eq!(b.observe(Timestamp(30), 3, 99), None);
        assert_eq!(
            b, before,
            "a redelivered key leaves entries and total_seen alone"
        );
        assert_eq!(b.total_seen(), 3);
    }

    #[test]
    fn store_lru_evicts_least_recently_touched() {
        // One shard, capacity 2 users.
        let mut store: UserWindowStore<u32> = UserWindowStore::new(1, 5, 2);
        store.apply(item(1, 10, 1));
        store.apply(item(2, 11, 2));
        store.apply(item(1, 12, 3)); // touch user 1 → user 2 is now LRU
        store.apply(item(3, 13, 4)); // evicts user 2
        assert!(store.buffer(2).is_none());
        assert_eq!(store.buffer(1).unwrap().len(), 2);
        assert_eq!(store.buffer(3).unwrap().len(), 1);
        assert_eq!(store.evicted_users(), 1);
        assert_eq!(store.resident_users(), 2);
        assert_eq!(store.peak_resident_users(), 2);
    }

    #[test]
    fn batch_map_results_in_submission_order_across_thread_counts() {
        let items: Vec<StoreItem<u32>> = (0..200u32)
            .map(|i| item(i % 17, 100 + i as i64, i))
            .collect();
        let run = |threads: usize| {
            rsd_par::with_local_pool(threads, || {
                let mut store: UserWindowStore<u32> = UserWindowStore::new(4, 5, 1024);
                store.apply_batch_map_with::<(u32, u64, Vec<u32>), (), _>(
                    items.clone(),
                    |user, buf, _, _| {
                        (
                            user,
                            buf.total_seen(),
                            buf.entries().iter().map(|e| e.id).collect(),
                        )
                    },
                )
            })
        };
        let t1 = run(1);
        let t4 = run(4);
        assert_eq!(t1, t4);
        assert_eq!(t1.len(), 200);
        // Spot-check: item k is user k%17's (k/17 + 1)-th post.
        for (k, (user, seen, _)) in t1.iter().enumerate() {
            assert_eq!(*user, (k as u32) % 17);
            assert_eq!(*seen, (k as u64) / 17 + 1);
        }
    }

    #[test]
    fn batch_map_with_reports_per_item_apply_time() {
        let items: Vec<StoreItem<u32>> = (0..50u32).map(|i| item(i % 7, i as i64, i)).collect();
        let mut store: UserWindowStore<u32> = UserWindowStore::new(4, 5, 64);
        let out = store
            .apply_batch_map_with::<(u32, u64, u64), (), _>(items, |user, buf, apply_ns, _| {
                (user, buf.total_seen(), apply_ns)
            });
        assert_eq!(out.len(), 50);
        for (k, (user, seen, _apply_ns)) in out.iter().enumerate() {
            assert_eq!(*user, (k as u32) % 7);
            assert_eq!(*seen, (k as u64) / 7 + 1);
        }
        // Instants are monotonic, so every per-item timing is a real
        // (possibly zero) duration; at least the store did *some* work.
        let total: u64 = out.iter().map(|(_, _, ns)| *ns).sum();
        assert!(total < u64::MAX);
    }

    #[test]
    fn batch_matches_serial_apply() {
        let items: Vec<StoreItem<u32>> = (0..300u32).map(|i| item(i % 23, i as i64, i)).collect();
        let mut serial: UserWindowStore<u32> = UserWindowStore::new(8, 5, 16);
        for it in items.clone() {
            serial.apply(it);
        }
        let mut batched: UserWindowStore<u32> = UserWindowStore::new(8, 5, 16);
        batched.apply_batch_map_with::<(), (), _>(items, |_, _, _, _| ());
        for user in 0..23u32 {
            assert_eq!(
                serial.buffer(user).map(|b| b.entries().to_vec()),
                batched.buffer(user).map(|b| b.entries().to_vec()),
                "user {user}"
            );
        }
        assert_eq!(serial.evicted_users(), batched.evicted_users());
        assert_eq!(serial.peak_resident_users(), batched.peak_resident_users());
    }
}
