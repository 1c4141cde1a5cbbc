//! Property: incremental maintenance under churn reaches exactly the
//! fixpoint that evaluation from scratch reaches. After any random
//! insert/delete sequence, the churned engine's tables (tuples AND their
//! supporting derivations) must equal those of a fresh engine fed only the
//! base facts that survived the churn.
//!
//! The program pool exercises every evaluation path the planner touches:
//! single-atom projection, two-atom joins probing on shared variables,
//! constants in probe columns, filters + assignments, negation
//! (reconciliation) and `min` aggregation (group recomputation).

use nt_runtime::{CompiledProgram, EngineConfig, NodeEngine, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const PROGRAMS: &[&str] = &[
    // Projection + two-atom join probing on the shared variables (S, B).
    "r1 g(@S,A,B) :- e(@S,A,B).\n\
     r2 h(@S,A,C) :- e(@S,A,B), f(@S,B,C).",
    // Join with a constant probe column, a filter and an assignment.
    "r1 h(@S,A,C) :- e(@S,A,B), f(@S,B,C), C < 3.\n\
     r2 k(@S,A,D) :- e(@S,A,1), D := A + 1.",
    // Negation: reconciliation-based maintenance.
    "r1 miss(@S,A,B) :- e(@S,A,B), !f(@S,A,B).",
    // Aggregation: group recomputation probed by the group key.
    "materialize(m, infinity, infinity, keys(1,2)).\n\
     r1 m(@S,min<B>) :- e(@S,A,B).\n\
     r2 g(@S,A) :- e(@S,A,B), f(@S,B,A).",
    // Three-atom chain join: the planner must order by connectivity.
    "r1 chain(@S,A,D) :- e(@S,A,B), f(@S,B,C), e(@S,C,D).",
];

/// One operation: insert (true) or delete (false) a fact of `e` or `f`.
type Op = (bool, bool, i64, i64, bool);

fn fact(relation: &str, a: i64, b: i64, b_double: bool) -> Tuple {
    // `b_double` stores the last column as an equal Double instead of an Int
    // (Value's total order equates them), exercising the index-key
    // normalization against `values_match`'s cross-type matching.
    let b_value = if b_double {
        Value::Double(b as f64)
    } else {
        Value::Int(b)
    };
    Tuple::new(relation, vec![Value::addr("n1"), Value::Int(a), b_value])
}

/// relation -> tuple -> sorted derivation dump.
type Dump = BTreeMap<String, BTreeMap<String, Vec<String>>>;

fn dump(engine: &NodeEngine) -> Dump {
    let mut state = BTreeMap::new();
    for table in engine.database().tables() {
        let mut tuples = BTreeMap::new();
        for stored in table.iter() {
            let mut derivations: Vec<String> = stored
                .derivations()
                .iter()
                .map(|d| format!("{d:?}"))
                .collect();
            derivations.sort();
            tuples.insert(stored.to_tuple().to_string(), derivations);
        }
        state.insert(table.schema.name.clone(), tuples);
    }
    state
}

/// Apply the ops one run at a time. Returns the engine's final database and
/// the base facts that survive the churn, as the engine stores them (a
/// re-insert of an equal fact keeps the stored variant; a delete of an equal
/// fact removes it).
fn run_ops(program: &Arc<CompiledProgram>, ops: &[Op]) -> (Dump, Vec<Tuple>) {
    let mut engine = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
    let mut surviving: Vec<Tuple> = Vec::new();
    for (insert, use_e, a, b, b_double) in ops {
        let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
        let pos = surviving.iter().position(|t| *t == tuple);
        if *insert {
            if pos.is_none() {
                surviving.push(tuple.clone());
            }
            engine.insert_base(tuple);
        } else {
            if let Some(pos) = pos {
                surviving.remove(pos);
            }
            engine.delete_base(tuple);
        }
        engine.run();
    }
    (dump(&engine), surviving)
}

/// Evaluate from scratch: a fresh engine fed `facts` in one run.
fn fresh(program: &Arc<CompiledProgram>, facts: &[Tuple]) -> Dump {
    let mut engine = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
    for tuple in facts {
        engine.insert_base(tuple.clone());
    }
    engine.run();
    dump(&engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The churned engine agrees with a fresh engine fed the surviving base
    /// facts on every relation (tuples AND their supporting derivations).
    #[test]
    fn churned_fixpoint_matches_fresh_evaluation(
        program_idx in 0usize..5,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..25,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let (churned, surviving) = run_ops(&program, &ops);
        prop_assert_eq!(churned, fresh(&program, &surviving));
    }

    /// Deleting everything that was inserted leaves every relation empty on
    /// both paths — incremental retraction and evaluation from scratch (no
    /// stale index entries resurrect tuples).
    #[test]
    fn full_retraction_drains_both_paths(
        program_idx in 0usize..5,
        facts in proptest::collection::vec(
            (any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..12,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let mut ops: Vec<Op> = facts
            .iter()
            .map(|(e, a, b, d)| (true, *e, *a, *b, *d))
            .collect();
        ops.extend(facts.iter().map(|(e, a, b, d)| (false, *e, *a, *b, *d)));
        let (churned, surviving) = run_ops(&program, &ops);
        prop_assert!(surviving.is_empty());
        let fresh = fresh(&program, &surviving);
        prop_assert_eq!(&churned, &fresh);
        for (relation, tuples) in &churned {
            prop_assert!(
                tuples.is_empty(),
                "relation {} still holds {} tuples after full retraction",
                relation,
                tuples.len()
            );
        }
    }
}
