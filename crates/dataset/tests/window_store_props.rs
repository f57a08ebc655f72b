//! Property tests for the shared per-user window store: incremental
//! updates must reproduce the batch latest-W selection byte-for-byte,
//! for any arrival order, batch partitioning, LRU pressure, and thread
//! count. This is the invariant that lets the serving path and the
//! batch dataset build share one window-selection implementation.

use proptest::prelude::*;

use rsd_common::Timestamp;
use rsd_dataset::{StoreItem, UserWindowStore};

/// One synthetic post event. Ids are assigned from the generation index
/// so every event is unique; timestamps collide on purpose to exercise
/// the `(created, id)` tie-break.
fn events(raw: &[(u32, i64)]) -> Vec<StoreItem<u8>> {
    raw.iter()
        .enumerate()
        .map(|(i, &(user, t))| StoreItem {
            user: user % 7,
            created: Timestamp(t),
            id: i as u32,
            payload: (i % 251) as u8,
        })
        .collect()
}

/// Reference batch selection: per user, stable-sort every post by
/// `(created, id)` and keep the trailing `window` — exactly what
/// `extract_window` does over a full user history.
fn batch_tail(items: &[StoreItem<u8>], user: u32, window: usize) -> Vec<(i64, u32, u8)> {
    let mut mine: Vec<&StoreItem<u8>> = items.iter().filter(|it| it.user == user).collect();
    mine.sort_by_key(|it| (it.created, it.id));
    mine.iter()
        .rev()
        .take(window)
        .rev()
        .map(|it| (it.created.0, it.id, it.payload))
        .collect()
}

/// The store's view of a user's window, flattened for comparison.
fn store_window(store: &UserWindowStore<u8>, user: u32) -> Vec<(i64, u32, u8)> {
    store
        .buffer(user)
        .map(|buf| {
            buf.entries()
                .iter()
                .map(|e| (e.created.0, e.id, e.payload))
                .collect()
        })
        .unwrap_or_default()
}

/// Per-user windows plus eviction totals — the store's full observable state.
type StoreState = (Vec<Vec<(i64, u32, u8)>>, u64, usize);

fn store_state(store: &UserWindowStore<u8>) -> StoreState {
    let windows = (0..7).map(|u| store_window(store, u)).collect();
    (windows, store.evicted_users(), store.peak_resident_users())
}

proptest! {
    /// With ample LRU capacity, incremental ingestion in *any* arrival
    /// order converges to the batch latest-W selection for every user.
    #[test]
    fn incremental_matches_batch_selection(
        raw in collection::vec((0u32..7, -50i64..50), 1..120),
        window in 1usize..6,
        shards in 1usize..4,
    ) {
        let items = events(&raw);
        let mut store = UserWindowStore::new(shards, window, 1024);
        for item in items.clone() {
            store.apply(item);
        }
        for user in 0..7 {
            prop_assert_eq!(
                store_window(&store, user),
                batch_tail(&items, user, window)
            );
        }
    }

    /// Batched parallel ingestion is indistinguishable from serial
    /// ingestion, for any batch partitioning and any pool size — the
    /// per-shard application order is the submission order, so chunk
    /// boundaries and worker scheduling cannot leak into state.
    #[test]
    fn batch_and_thread_count_invariant(
        raw in collection::vec((0u32..7, -50i64..50), 1..100),
        window in 1usize..6,
        batch in 1usize..17,
        lru_capacity in 2usize..10,
    ) {
        let items = events(&raw);

        let mut serial = UserWindowStore::new(3, window, lru_capacity);
        rsd_par::with_local_pool(1, || {
            for item in items.clone() {
                serial.apply(item);
            }
        });
        let want = store_state(&serial);

        for threads in [1usize, 4] {
            let mut store = UserWindowStore::new(3, window, lru_capacity);
            rsd_par::with_local_pool(threads, || {
                for chunk in items.chunks(batch) {
                    store.apply_batch_map_with::<(), (), _>(chunk.to_vec(), |_, _, _, _| ());
                }
            });
            prop_assert_eq!(store_state(&store), want.clone());
        }
    }

    /// Under LRU pressure the evicted user set is deterministic: replays
    /// of the same stream always evict the same users at the same point,
    /// and re-arrival after eviction restarts the window from scratch
    /// (total_seen resets with residency).
    #[test]
    fn eviction_is_deterministic_and_bounded(
        raw in collection::vec((0u32..7, -50i64..50), 20..100),
    ) {
        let items = events(&raw);
        let run = || {
            let mut store = UserWindowStore::new(2, 3, 2);
            for item in items.clone() {
                store.apply(item);
            }
            (store_state(&store), store.resident_users())
        };
        let (state_a, resident_a) = run();
        let (state_b, resident_b) = run();
        prop_assert_eq!(&state_a, &state_b);
        prop_assert_eq!(resident_a, resident_b);
        // cap_per_shard = max(2/2, 1) = 1 resident user per shard.
        prop_assert!(resident_a <= 2, "resident {} over capacity", resident_a);
    }
}
