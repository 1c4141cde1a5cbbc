//! Property: the columnar [`Table`] behaves like a plain row store, and its
//! probe kernel yields exactly what a linear filter yields. A random
//! sequence of derivation inserts and deletes — mixing `Addr`/`Str` and
//! `Int`/`Double` values that match across types, forcing column promotion,
//! key replacement and slot recycling — is applied both to a `Table` and to
//! a row-store model (an ordered map from primary key to tuple and
//! derivations, independent of the column arenas). After every operation:
//!
//! * the table's [`Membership`] answers and its key-order iteration equal
//!   the model's;
//! * for random bound columns, [`Table::probe`] yields exactly the tuples
//!   that a linear [`Table::iter`] filter with [`values_match`] keeps, each
//!   once;
//! * with no bound columns, `probe` yields every tuple in primary-key order.

use nt_runtime::{
    values_match, Derivation, Membership, RelationSchema, Table, Tuple, TupleId, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ARITY: usize = 3;

/// The value pool: every cross-type match the storage layer must honour.
fn value_of(code: u8) -> Value {
    match code % 19 {
        c @ 0..=2 => Value::addr(["a", "b", "c"][c as usize]),
        c @ 3..=5 => Value::str(["a", "b", "c"][c as usize - 3]),
        c @ 6..=8 => Value::Int(c as i64 - 6),
        c @ 9..=11 => Value::Double((c - 9) as f64),
        12 => Value::Double(1.5),
        13 => Value::Double(f64::NAN),
        14 => Value::List(vec![Value::Int(1)]),
        15 => Value::List(vec![Value::Double(1.0)]),
        16 => Value::List(vec![Value::addr("a")]),
        17 => Value::List(vec![Value::str("a")]),
        _ => Value::Bool(true),
    }
}

fn tuple_of(codes: (u8, u8, u8)) -> Tuple {
    Tuple::new(
        "t",
        vec![value_of(codes.0), value_of(codes.1), value_of(codes.2)],
    )
}

fn schema(key_cols: Vec<usize>) -> RelationSchema {
    RelationSchema {
        name: "t".into(),
        arity: ARITY,
        location_col: 0,
        key_cols,
        is_base: true,
        lifetime: None,
    }
}

/// The row-store model: primary key -> (stored tuple, derivations).
#[derive(Default)]
struct RowModel {
    rows: BTreeMap<Vec<Value>, (Tuple, Vec<Derivation>)>,
}

impl RowModel {
    fn add(&mut self, key: Vec<Value>, tuple: &Tuple, d: Derivation) -> Membership {
        match self.rows.get_mut(&key) {
            Some((stored, ds)) if stored == tuple => {
                if ds.contains(&d) {
                    Membership::Unchanged
                } else {
                    ds.push(d);
                    Membership::AddedDerivation
                }
            }
            Some(_) => {
                let (old, _) = self.rows.insert(key, (tuple.clone(), vec![d])).unwrap();
                Membership::Replaced(old)
            }
            None => {
                self.rows.insert(key, (tuple.clone(), vec![d]));
                Membership::Appeared
            }
        }
    }

    fn remove(&mut self, key: Vec<Value>, tuple: &Tuple, d: &Derivation) -> Membership {
        let Some((stored, ds)) = self.rows.get_mut(&key) else {
            return Membership::NotFound;
        };
        if stored != tuple || !ds.contains(d) {
            return Membership::NotFound;
        }
        ds.retain(|x| x != d);
        if ds.is_empty() {
            self.rows.remove(&key);
            Membership::Disappeared
        } else {
            Membership::RemovedDerivation
        }
    }
}

/// Check the table against the model and the probe kernel against the
/// linear filter.
fn check(
    table: &Table,
    model: &RowModel,
    probes: &[(u8, (u8, u8, u8))],
) -> Result<(), TestCaseError> {
    let listed: Vec<(Tuple, Vec<Derivation>)> = table
        .iter()
        .map(|r| (r.to_tuple(), r.derivations().to_vec()))
        .collect();
    let expected: Vec<(Tuple, Vec<Derivation>)> = model.rows.values().cloned().collect();
    prop_assert_eq!(&listed, &expected);
    prop_assert_eq!(table.len(), model.rows.len());
    for (tuple, _) in &expected {
        let by_id = table.get_by_id(tuple.id()).map(|r| r.to_tuple());
        prop_assert_eq!(by_id.as_ref(), Some(tuple));
    }

    // No bound columns: every tuple, in primary-key order.
    let scanned: Vec<Tuple> = table.probe(&[]).map(|r| r.to_tuple()).collect();
    let in_key_order: Vec<Tuple> = expected.iter().map(|(t, _)| t.clone()).collect();
    prop_assert_eq!(scanned, in_key_order);

    for (mask, codes) in probes {
        let probe_values = tuple_of(*codes).values;
        let bound: Vec<(usize, Value)> = (0..ARITY)
            .filter(|c| mask & (1 << c) != 0)
            .map(|c| (c, probe_values[c].clone()))
            .collect();
        let mut probed: Vec<TupleId> = table.probe(&bound).map(|r| r.id()).collect();
        // The linear filter visits each stored tuple once, so equality after
        // sorting also rules out a probe yielding a tuple twice.
        let mut oracle: Vec<TupleId> = table
            .iter()
            .filter(|r| bound.iter().all(|(c, v)| values_match(v, &r.value(*c))))
            .map(|r| r.id())
            .collect();
        probed.sort();
        oracle.sort();
        prop_assert_eq!(
            probed,
            oracle,
            "probe {:?} disagrees with the linear filter",
            bound
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every insert or delete, the columnar table agrees with the
    /// row-store model and every probe with the linear `values_match`
    /// filter.
    #[test]
    fn columnar_matches_row_store(
        partial_key in any::<bool>(),
        ops in proptest::collection::vec(
            (any::<bool>(), (0u8..19, 0u8..19, 0u8..19), 0u8..2),
            1..40,
        ),
        probes in proptest::collection::vec((0u8..8, (0u8..19, 0u8..19, 0u8..19)), 1..12),
    ) {
        let key_cols = if partial_key { vec![0, 1] } else { vec![0, 1, 2] };
        let mut table = Table::new(schema(key_cols.clone()));
        let mut model = RowModel::default();
        for (insert, codes, node) in &ops {
            let tuple = tuple_of(*codes);
            let key = tuple.project(&key_cols);
            let d = Derivation::base(["n1", "n2"][*node as usize]);
            if *insert {
                let expected = model.add(key, &tuple, d.clone());
                prop_assert_eq!(table.add_derivation(&tuple, d), expected);
            } else {
                let expected = model.remove(key, &tuple, &d);
                prop_assert_eq!(table.remove_derivation(&tuple, &d), expected);
            }
            check(&table, &model, &probes)?;
        }
    }

    /// Deleting everything that was inserted drains both the columnar table
    /// and the row-store model, and inserting the same facts again reuses
    /// the freed slots: the arena does not grow.
    #[test]
    fn full_retraction_drains_both_backings(
        facts in proptest::collection::vec((0u8..19, 0u8..19, 0u8..19), 1..20),
        probes in proptest::collection::vec((0u8..8, (0u8..19, 0u8..19, 0u8..19)), 1..8),
    ) {
        let key_cols = vec![0, 1, 2];
        let mut table = Table::new(schema(key_cols.clone()));
        let mut model = RowModel::default();
        let d = Derivation::base("n1");
        let fill = |table: &mut Table, model: &mut RowModel| {
            for codes in &facts {
                let tuple = tuple_of(*codes);
                model.add(tuple.project(&key_cols), &tuple, d.clone());
                table.add_derivation(&tuple, d.clone());
            }
        };
        fill(&mut table, &mut model);
        let filled_bytes = table.storage_bytes();
        for codes in &facts {
            let tuple = tuple_of(*codes);
            model.remove(tuple.project(&key_cols), &tuple, &d);
            table.remove_derivation(&tuple, &d);
        }
        prop_assert!(model.rows.is_empty());
        prop_assert!(table.is_empty());
        check(&table, &model, &probes)?;
        fill(&mut table, &mut model);
        check(&table, &model, &probes)?;
        prop_assert_eq!(table.storage_bytes(), filled_bytes);
    }
}
