//! Deterministic scoped worker pools.
//!
//! [`parallel_map_ordered`] is the primitive under EdgeTune's real
//! parallel rung execution: independent work items fan out over
//! `std::thread::scope` workers, each worker owning its own mutable
//! context (a backend snapshot, a seeded RNG stream, …), and the results
//! merge back **in input order**. Which thread computed which item is
//! unobservable in the output, so callers get wall-clock scaling without
//! giving up bit-identical results. The same primitive drives sharded
//! study execution: the shard fabric hands each shard plan's rung slice
//! to this pool, one backend snapshot per context.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `work` over `items` on one OS thread per context, returning the
/// results in input order.
///
/// Each spawned worker owns one element of `contexts` and pulls item
/// indices from a shared atomic cursor until the items run out — natural
/// load balancing for heterogeneous item costs. The output vector is
/// exactly `[work(ctx, 0, &items[0]), work(ctx, 1, &items[1]), …]`
/// regardless of scheduling, provided `work` gives the same answer on
/// every context (which is the contract of a backend snapshot).
///
/// With a single context or a single item the map runs inline on the
/// calling thread — no spawn overhead for the degenerate cases.
///
/// # Panics
///
/// Panics when `contexts` is empty while `items` is not, and re-raises
/// any panic from a worker thread.
pub fn parallel_map_ordered<T, R, C, F>(items: &[T], contexts: Vec<C>, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    C: Send,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    assert!(
        !contexts.is_empty(),
        "parallel_map_ordered needs at least one context"
    );
    if contexts.len() == 1 || items.len() == 1 {
        let mut context = contexts.into_iter().next().expect("checked non-empty");
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| work(&mut context, index, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .into_iter()
            .map(|mut context| {
                let cursor = &cursor;
                let work = &work;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, work(&mut context, index, &items[index])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("worker thread panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i + 1).collect();
        for workers in [1usize, 2, 4, 8] {
            let contexts: Vec<()> = vec![(); workers];
            let got = parallel_map_ordered(&items, contexts, |(), _index, item| item * item + 1);
            assert_eq!(got, expected, "{workers} workers");
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let items: Vec<usize> = (0..50).collect();
        let calls = AtomicU64::new(0);
        let got = parallel_map_ordered(&items, vec![0u64; 4], |_ctx, _index, item| {
            calls.fetch_add(1, Ordering::Relaxed);
            *item
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(got, items);
    }

    #[test]
    fn workers_own_mutable_contexts() {
        // Each worker threads its own accumulator through the items it
        // happens to claim; the per-item results stay order-stable.
        let items: Vec<u64> = (1..=20).collect();
        let got = parallel_map_ordered(&items, vec![0u64; 3], |seen, _index, item| {
            *seen += 1;
            *item * 10
        });
        assert_eq!(got, (1..=20).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_items_yield_an_empty_result_without_spawning() {
        let items: Vec<u32> = Vec::new();
        let got = parallel_map_ordered(&items, Vec::<()>::new(), |(), _i, item| *item);
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let got = parallel_map_ordered(&[41u32], vec![(); 8], |(), index, item| {
            assert_eq!(index, 0);
            item + 1
        });
        assert_eq!(got, vec![42]);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map_ordered(&items, vec![(); 2], |(), _index, item| {
            assert!(*item != 5, "injected failure");
            *item
        });
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_with_work_is_a_caller_bug() {
        let _ = parallel_map_ordered(&[1u32, 2], Vec::<()>::new(), |(), _i, item| *item);
    }
}
