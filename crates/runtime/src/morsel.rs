//! Morsel-driven parallel rule evaluation for the generation-based
//! semi-naive fixpoint.
//!
//! A [`crate::NodeEngine`] processes its delta queue in *generations*: all
//! currently queued deltas are applied to the tables first (sequential, in
//! stream order), and only then are the surviving insertions expanded into
//! rule-evaluation trigger tasks. Because the tables do not change again
//! until the next generation, every monotonic (non-aggregate, negation-free)
//! trigger task is a pure read over the database — the join plan, the
//! assignment/filter steps and the head construction touch nothing mutable.
//! That is what makes them safe to farm out.
//!
//! [`evaluate_tasks`] partitions the generation's task list into fixed-size
//! *morsels* and dispatches them to the process-wide [`nt_pool`] workers,
//! keeping at most `workers` morsels in flight. Workers pull morsels off the
//! shared queue as they free up (the morsel-driven scheduling discipline), so
//! a skewed task — one delta joining against a huge posting list — does not
//! stall the rest of the generation behind it.
//!
//! ## Determinism discipline
//!
//! Parallelism must never show through in the output. Three properties make
//! every worker count — including the inline sequential path — bit-identical:
//!
//! 1. each task's candidate list depends only on the (frozen) database, so a
//!    task computes the same candidates on any thread;
//! 2. morsel results come back in task order ([`nt_pool::run_borrowed_limited`]
//!    indexes acknowledgements), so the flattened candidate stream equals the
//!    sequential one;
//! 3. all mutation — derivation emission, outbox sends, aggregate and
//!    negation reconciliation, cascade deletion — happens in the engine's
//!    sequence-ordered merge phase, which consumes the candidate stream in
//!    task order on one thread.
//!
//! Probe counters are summed per task and folded in task order, so
//! `EngineStats` is identical too.

use crate::compile::{BoundTerm, CompiledProgram, CompiledRule, ProbeStrategy};
use crate::engine::{build_head, match_atom};
use crate::eval::{eval_expr, eval_filter, literal_value, Bindings};
use crate::store::{Database, TupleRef};
use crate::tuple::Tuple;
use crate::value::Value;
use ndlog::{BodyElem, Literal, Predicate, Term};

/// Tasks per morsel. Small enough that a generation of a few hundred tasks
/// still load-balances across workers, large enough that the per-dispatch
/// overhead (one boxed closure + one acknowledgement) is amortized. Morsel
/// boundaries never affect output — results are flattened in task order.
pub(crate) const MORSEL_TASKS: usize = 32;

/// One parallelizable trigger: evaluate rule `rule_idx` with the delta tuple
/// bound to body atom `atom_idx`, following the precomputed join plan for
/// that trigger position. Only monotonic rules (no aggregate, no negation)
/// become `MonoTask`s; everything else stays on the sequential merge path.
#[derive(Debug, Clone)]
pub(crate) struct MonoTask {
    pub rule_idx: usize,
    pub atom_idx: usize,
    pub tuple: Tuple,
}

/// A candidate firing produced by a trigger task: the constructed head and
/// the body tuples that matched, in body order. The derivation record is
/// built at commit time by the merge phase (it only needs the rule symbol,
/// the engine's node and the input ids).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub rule_idx: usize,
    pub head: Tuple,
    pub inputs: Vec<Tuple>,
}

/// A read-only view of everything rule evaluation needs: the frozen tables
/// and the compiled program. `Copy` so closures can capture it by value;
/// all referents are shared borrows, which is exactly why a task can run on
/// any pool thread.
#[derive(Clone, Copy)]
pub(crate) struct EvalContext<'a> {
    pub db: &'a Database,
    pub program: &'a CompiledProgram,
}

impl<'a> EvalContext<'a> {
    /// Evaluate one monotonic trigger task: match the delta against its
    /// trigger atom, join the remaining atoms along the precomputed plan,
    /// apply assignments/filters and construct heads. Returns the candidates
    /// in discovery order plus the number of join candidates examined.
    pub fn eval_candidates(&self, task: &MonoTask) -> (Vec<Candidate>, u64) {
        let rule = &self.program.rules[task.rule_idx];
        let mut bindings = Bindings::new();
        if !match_atom(&rule.positive[task.atom_idx], &task.tuple, &mut bindings) {
            return (Vec::new(), 0);
        }
        let mut matched: Vec<Option<Tuple>> = vec![None; rule.positive.len()];
        matched[task.atom_idx] = Some(task.tuple.clone());
        let mut results = Vec::new();
        let mut probes = 0u64;
        self.join_plan(
            rule,
            &rule.plans[task.atom_idx].steps,
            0,
            &mut bindings,
            &mut matched,
            &mut results,
            &mut probes,
        );
        let mut candidates = Vec::new();
        for (bindings, inputs) in results {
            let Some(bindings) = apply_steps(rule, bindings) else {
                continue;
            };
            // Monotonic rules carry no negated atoms; the loop is kept so
            // the candidate pipeline stays a faithful port of `fire_rule`.
            let mut negated_hit = false;
            for (neg, probe_cols) in rule.negated.iter().zip(&rule.negated_probes) {
                if self.exists_match(neg, probe_cols, &bindings, &mut probes) {
                    negated_hit = true;
                    break;
                }
            }
            if negated_hit {
                continue;
            }
            let Some(head) = build_head(&rule.rule.head, &bindings, rule.head_loc_col, None) else {
                continue;
            };
            candidates.push(Candidate {
                rule_idx: task.rule_idx,
                head,
                inputs,
            });
        }
        (candidates, probes)
    }

    /// Recursively join the atoms of a plan. Each step probes its table
    /// through the bound columns the plan computed at compile time, so the
    /// candidate set is an index posting list rather than the whole table;
    /// bindings are extended in place (with undo) instead of cloned per
    /// candidate. `probes` counts the candidates actually examined.
    #[allow(clippy::too_many_arguments)]
    pub fn join_plan(
        &self,
        rule: &CompiledRule,
        steps: &[crate::compile::PlanStep],
        pos: usize,
        bindings: &mut Bindings,
        matched: &mut Vec<Option<Tuple>>,
        results: &mut Vec<(Bindings, Vec<Tuple>)>,
        probes: &mut u64,
    ) {
        if pos == steps.len() {
            let inputs: Vec<Tuple> = matched
                .iter()
                .map(|t| t.clone().expect("all atoms matched"))
                .collect();
            results.push((bindings.clone(), inputs));
            return;
        }
        let step = &steps[pos];
        let atom = &rule.positive[step.atom];
        let Some(table) = self.db.table_sym(rule.positive_syms[step.atom]) else {
            return;
        };
        let bound = if step.strategy == ProbeStrategy::PostingList {
            resolve_bound_cols(&step.bound_cols, bindings)
        } else {
            Vec::new()
        };
        for cand in table.probe(&bound) {
            *probes += 1;
            let mut added = Vec::new();
            if match_candidate_undo(atom, &cand, bindings, &mut added) {
                // Only a surviving candidate is materialized out of its
                // columnar slot; the matching above reads the columns in
                // place.
                matched[step.atom] = Some(cand.to_tuple());
                self.join_plan(rule, steps, pos + 1, bindings, matched, results, probes);
                matched[step.atom] = None;
                for name in added {
                    bindings.remove(&name);
                }
            }
        }
    }

    /// Does any stored tuple match `atom` under `bindings`? Probes the
    /// relation's indexes through the compile-time bound columns instead of
    /// scanning; `probes` counts the candidates examined.
    pub fn exists_match(
        &self,
        atom: &Predicate,
        probe_cols: &[(usize, BoundTerm)],
        bindings: &Bindings,
        probes: &mut u64,
    ) -> bool {
        let Some(table) = self.db.table(&atom.relation) else {
            return false;
        };
        let bound = resolve_bound_cols(probe_cols, bindings);
        // One scratch clone for the whole check instead of one per candidate.
        let mut scratch = bindings.clone();
        for cand in table.probe(&bound) {
            *probes += 1;
            let mut added = Vec::new();
            if match_candidate_undo(atom, &cand, &mut scratch, &mut added) {
                return true;
            }
        }
        false
    }
}

/// Evaluate every task, returning `(candidates, probes)` per task in task
/// order. Dispatches morsels to the shared worker pool only when the engine
/// is configured for parallelism *and* the generation is large enough to
/// amortize dispatch — small generations run inline with zero pool traffic.
/// Both paths produce identical output (see the module documentation).
pub(crate) fn evaluate_tasks(
    ctx: &EvalContext<'_>,
    tasks: &[MonoTask],
    workers: usize,
    dispatch_threshold: usize,
) -> Vec<(Vec<Candidate>, u64)> {
    type MorselJob<'env> = Box<dyn FnOnce() -> Vec<(Vec<Candidate>, u64)> + Send + 'env>;
    if workers <= 1 || tasks.is_empty() || tasks.len() < dispatch_threshold {
        return tasks.iter().map(|t| ctx.eval_candidates(t)).collect();
    }
    let jobs: Vec<MorselJob<'_>> = tasks
        .chunks(MORSEL_TASKS)
        .map(|morsel| {
            let ctx = *ctx;
            Box::new(move || morsel.iter().map(|t| ctx.eval_candidates(t)).collect())
                as MorselJob<'_>
        })
        .collect();
    nt_pool::run_borrowed_limited(jobs, workers)
        .into_iter()
        .flatten()
        .collect()
}

/// Evaluate assignments and filters; `None` when a filter rejects the
/// bindings or an expression fails to evaluate.
pub(crate) fn apply_steps(rule: &CompiledRule, mut bindings: Bindings) -> Option<Bindings> {
    for step in &rule.steps {
        match step {
            BodyElem::Assign { var, expr } => match eval_expr(expr, &bindings) {
                Ok(value) => match bindings.get(var) {
                    Some(existing) if *existing != value => return None,
                    _ => {
                        bindings.insert(var.clone(), value);
                    }
                },
                Err(_) => return None,
            },
            BodyElem::Filter(expr) => match eval_filter(expr, &bindings) {
                Ok(true) => {}
                _ => return None,
            },
            BodyElem::Atom(_) => {}
        }
    }
    Some(bindings)
}

/// Resolve a plan's bound columns against the current bindings into concrete
/// probe values.
pub(crate) fn resolve_bound_cols(
    bound_cols: &[(usize, BoundTerm)],
    bindings: &Bindings,
) -> Vec<(usize, crate::value::Value)> {
    bound_cols
        .iter()
        .filter_map(|(col, bt)| match bt {
            BoundTerm::Const(lit) => Some((*col, literal_value(lit))),
            BoundTerm::Var(name) => bindings.get(name).map(|v| (*col, v.clone())),
        })
        .collect()
}

/// Like [`match_atom`], but works on a borrowed probe candidate (matching
/// column by column against the storage without materializing a `Tuple`) and
/// extends `bindings` in place instead of requiring the caller to clone them
/// per candidate: variables newly bound are recorded in `added`, and on a
/// failed match they are removed again before returning. On success the
/// caller owns the cleanup (after recursing).
pub(crate) fn match_candidate_undo(
    atom: &Predicate,
    cand: &TupleRef<'_>,
    bindings: &mut Bindings,
    added: &mut Vec<String>,
) -> bool {
    if cand.relation().as_str() != atom.relation || atom.terms.len() != cand.arity() {
        return false;
    }
    let mut ok = true;
    for (col, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Wildcard => {}
            Term::Variable { name, .. } => match bindings.get(name) {
                Some(bound) => {
                    if !cand.matches(col, bound) {
                        ok = false;
                        break;
                    }
                }
                None => {
                    bindings.insert(name.clone(), cand.value(col));
                    added.push(name.clone());
                }
            },
            Term::Constant { value: lit, .. } => {
                if !literal_matches_ref(lit, cand, col) {
                    ok = false;
                    break;
                }
            }
            Term::Aggregate(_) => {
                ok = false;
                break;
            }
        }
    }
    if !ok {
        for name in added.drain(..) {
            bindings.remove(&name);
        }
    }
    ok
}

/// Does the candidate's column `col` match a program literal? String
/// literals compare as text (matching `Addr` too) without allocating the
/// `Value::Str` that [`literal_value`] would build per candidate.
fn literal_matches_ref(lit: &Literal, cand: &TupleRef<'_>, col: usize) -> bool {
    match lit {
        Literal::Str(s) => cand.matches_text(col, s),
        Literal::Int(v) => cand.matches(col, &Value::Int(*v)),
        Literal::Double(v) => cand.matches(col, &Value::Double(*v)),
        Literal::Bool(b) => cand.matches(col, &Value::Bool(*b)),
        Literal::Infinity => cand.matches(col, &Value::Infinity),
    }
}
