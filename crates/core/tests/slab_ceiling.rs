//! The pair slab's slot ceiling, under shrunken limits. `ItemArena` caps
//! its distinct live slots (the `u32` wire format's ceiling, or a lower
//! per-query one); random intern/release sequences against a
//! key → reference-count model check that the cap fails exactly when a new
//! distinct item would exceed it, that a recycled slot resolves to its new
//! item, and that `live()` tracks the model after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdj_core::{Item, ItemArena};
use sdj_geom::Rect;
use sdj_rtree::ObjectId;
use sdj_storage::StorageError;

/// An item identity: (R2 side, kind, id). Ids past 2^20 take the arena's
/// hash-map index instead of its dense tables.
type Key = (bool, u8, u64);

/// The one item a key stands for (an arena key must name one item).
fn item(&(_, kind, id): &Key) -> Item<2> {
    let x = (id % 1_000) as f64;
    let mbr = Rect::new([x, 0.0], [x + 1.0, 1.0]);
    match kind {
        0 => Item::Node {
            page: id,
            level: 1,
            mbr,
        },
        1 => Item::Obr {
            oid: ObjectId(id),
            mbr,
        },
        _ => Item::Object {
            oid: ObjectId(id),
            mbr,
        },
    }
}

#[derive(Clone, Debug)]
enum Op {
    Intern(Key),
    /// Drops one reference of the `n % live`-th live key.
    Release(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let key = (
        any::<bool>(),
        0u8..3,
        prop::sample::select(vec![0u64, 1, 2, 3, (1 << 20) + 1, 1 << 40]),
    );
    prop_oneof![key.prop_map(Op::Intern), (0usize..64).prop_map(Op::Release)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_limit_fails_exactly_at_the_cap_and_recycled_slots_resolve(
        limit in 1u32..=8,
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut arena = ItemArena::<2>::with_slot_limit(limit);
        // Live key → (slot, references), and every slot ever handed out.
        let mut model: BTreeMap<Key, (u32, u32)> = BTreeMap::new();
        let mut used_slots = Vec::new();
        for op in ops {
            match op {
                Op::Intern(key) => {
                    let got = arena.intern(key.0, &item(&key));
                    if let Some((slot, refs)) = model.get_mut(&key) {
                        prop_assert_eq!(got, Ok(*slot), "a live item shares its slot");
                        *refs += 1;
                    } else if model.len() == limit as usize {
                        prop_assert_eq!(
                            got,
                            Err(StorageError::ResourceExhausted("pair-slab arena slots"))
                        );
                    } else {
                        let slot = got.map_err(|e| TestCaseError::fail(format!("{e}")))?;
                        prop_assert!(slot < limit, "slot {} past the cap {}", slot, limit);
                        prop_assert!(
                            model.values().all(|(s, _)| *s != slot),
                            "slot {} handed out twice", slot
                        );
                        if used_slots.contains(&slot) {
                            prop_assert_eq!(arena.resolve(slot), item(&key), "recycled slot");
                        } else {
                            used_slots.push(slot);
                        }
                        model.insert(key, (slot, 1));
                    }
                }
                Op::Release(_) if model.is_empty() => {}
                Op::Release(n) => {
                    let key = *model.keys().nth(n % model.len()).unwrap();
                    let (slot, refs) = model[&key];
                    arena.release(slot);
                    if refs == 1 {
                        model.remove(&key);
                    } else {
                        model.insert(key, (slot, refs - 1));
                    }
                }
            }
            prop_assert_eq!(arena.live(), model.len());
            for (key, (slot, _)) in &model {
                prop_assert_eq!(arena.resolve(*slot), item(key));
            }
        }
    }
}
