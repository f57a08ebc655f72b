//! Registry determinism under contention: hammering one [`Registry`]
//! from the `rsd-par` pool must produce a snapshot that is bit-for-bit
//! identical to the same workload applied serially. This holds because
//! every aggregate is either integer-typed (counters, tree nanoseconds
//! and the per-label span folds over them) or deterministic last-write
//! (gauges set to a constant).

use rsd_obs::Registry;

const ITEMS: usize = 10_000;
const GRAIN: usize = 64;

/// The per-item workload: one counter bump, one tree span on one of two
/// paths ending in the same label. Everything derived from `i` alone so
/// execution order cannot matter.
fn drive(reg: &Registry, i: usize) {
    reg.counter_add("conc.items", 1);
    reg.record_tree(
        ["conc.outer;conc.step", "conc.step"][i % 2],
        ((i % 5 + 1) * 100_000) as u64,
        ((i % 5 + 1) * 60_000) as u64,
        (i % 11) as u64 * 64,
        (i % 11) as u64 * 32,
    );
    reg.gauge_set("conc.last", 42.0);
}

fn snapshot_of(run: impl FnOnce(&Registry)) -> String {
    let reg = Registry::new();
    run(&reg);
    reg.snapshot().to_json()
}

#[test]
fn parallel_and_serial_snapshots_are_bit_identical() {
    let serial = snapshot_of(|reg| {
        rsd_par::run_serial(|| {
            for i in 0..ITEMS {
                drive(reg, i);
            }
        });
    });
    let parallel = snapshot_of(|reg| {
        rsd_par::with_local_pool(4, || {
            rsd_par::parallel_for(ITEMS, GRAIN, |range| {
                for i in range {
                    drive(reg, i);
                }
            });
        });
    });
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "registry snapshot diverged between serial and 4-thread runs"
    );

    // Spot-check the aggregates themselves, not just the JSON encoding.
    let reg = Registry::new();
    rsd_par::with_local_pool(4, || {
        rsd_par::parallel_for(ITEMS, GRAIN, |range| {
            for i in range {
                drive(&reg, i);
            }
        });
    });
    assert_eq!(reg.counter("conc.items"), ITEMS as u64);
    assert_eq!(reg.gauge("conc.last"), Some(42.0));
    let tree = reg.tree_stat("conc.outer;conc.step").unwrap();
    assert_eq!(tree.count, ITEMS as u64 / 2);
    assert!(tree.self_ns <= tree.total_ns);
    let span = reg.span_stat("conc.step").unwrap();
    assert_eq!(span.count, ITEMS as u64);
    assert_eq!(span.max_depth, 1);
}
