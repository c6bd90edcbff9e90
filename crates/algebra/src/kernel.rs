//! Fused streaming kernels: the one delta rule for `Select`/`Project`.
//!
//! A [`FusedProgram`] compiles a `Select`/`Project` chain (every σ/π run
//! of an update track, which the engine compiles from the slot that feeds
//! it; a lone σ or π is a one-stage chain) into a flat pipeline of
//! [`KernelStage`]s. Delta elements are then *pushed*
//! through the whole chain one at a time — no intermediate `Delta` or
//! `Bag` is materialized per operator, and a tuple that a filter drops
//! costs nothing downstream. Rows travel as borrowed `&[Value]` slices:
//! projections evaluate into caller-provided scratch buffers
//! ([`KernelScratch`], which the database keeps across updates), and a
//! fresh [`Tuple`] is only allocated for rows that survive the entire
//! chain.
//!
//! The per-element semantics are the σ/π delta rule itself, and each
//! element's path is independent of the others', so a chain equals its
//! stages run one at a time:
//!
//! * a filter splits a modify pair when exactly one side passes — the
//!   surviving side continues alone as a pure insert or delete;
//! * a projection keeps the pair; pairs a projection makes identical stay
//!   identical through every later stage and are dropped by the caller's
//!   `push_modify`.
//!
//! Kernels evaluate no queries and charge no I/O; compilation refuses any
//! op that would (`Join`/`Aggregate`/`Distinct` return `None`).

use spacetime_storage::{StorageResult, Tuple, Value};

use crate::ops::OpKind;
use crate::scalar::ScalarExpr;

/// One fused pipeline step.
#[derive(Debug, Clone)]
pub enum KernelStage {
    /// Keep rows satisfying the predicate (`Select`).
    Filter(ScalarExpr),
    /// Replace the row with the evaluated expressions (`Project`).
    Map(Vec<ScalarExpr>),
}

/// A compiled `Select`/`Project` chain.
#[derive(Debug, Clone)]
pub struct FusedProgram {
    stages: Vec<KernelStage>,
}

/// What a modify pair became after the chain.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// Both sides survived every filter: still a modification.
    Modify(Tuple, Tuple),
    /// Only the old side survived: a deletion.
    DeleteOld(Tuple),
    /// Only the new side survived: an insertion.
    InsertNew(Tuple),
}

/// Reusable row buffers for kernel invocations: two ping-pong buffers
/// per side of a modify pair. Keep one across calls — the buffers grow to
/// the widest row once and are then reused for every element of every
/// delta.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch {
    old: LaneBufs,
    new: LaneBufs,
}

#[derive(Debug, Default, Clone)]
struct LaneBufs {
    a: Vec<Value>,
    b: Vec<Value>,
}

/// Which storage currently holds a lane's row.
#[derive(Clone, Copy, PartialEq)]
enum Cur {
    /// The untouched input tuple.
    Input,
    /// Buffer `a`.
    A,
    /// Buffer `b`.
    B,
}

/// One side of an element travelling through the chain: the input tuple
/// plus the ping-pong buffers a `Map` writes into.
struct Lane<'t, 'b> {
    input: &'t Tuple,
    bufs: &'b mut LaneBufs,
    cur: Cur,
}

impl<'t> Lane<'t, '_> {
    fn new<'b>(input: &'t Tuple, bufs: &'b mut LaneBufs) -> Lane<'t, 'b> {
        Lane {
            input,
            bufs,
            cur: Cur::Input,
        }
    }

    fn row(&self) -> &[Value] {
        match self.cur {
            Cur::Input => self.input.values(),
            Cur::A => &self.bufs.a,
            Cur::B => &self.bufs.b,
        }
    }

    fn map(&mut self, exprs: &[ScalarExpr]) -> StorageResult<()> {
        let LaneBufs { a, b } = &mut *self.bufs;
        let (src, dst, next) = match self.cur {
            Cur::Input => (self.input.values(), a, Cur::A),
            Cur::B => (&**b, a, Cur::A),
            Cur::A => (&**a, b, Cur::B),
        };
        dst.clear();
        for e in exprs {
            dst.push(e.eval_slice(src)?);
        }
        self.cur = next;
        Ok(())
    }

    /// The surviving row as a tuple: the input is refcount-cloned, a
    /// mapped row is drained out of its buffer (capacity stays pooled).
    fn finish(self) -> Tuple {
        match self.cur {
            Cur::Input => self.input.clone(),
            Cur::A => Tuple::from_values(self.bufs.a.drain(..)),
            Cur::B => Tuple::from_values(self.bufs.b.drain(..)),
        }
    }
}

impl FusedProgram {
    /// Compile an op chain into a program, or `None` if any op poses
    /// queries (only `Select`/`Project` fuse; pass ops leaf-side first,
    /// without the leading `Scan`).
    pub fn compile<'a>(ops: impl IntoIterator<Item = &'a OpKind>) -> Option<FusedProgram> {
        let mut stages = Vec::new();
        for op in ops {
            match op {
                OpKind::Select { predicate } => stages.push(KernelStage::Filter(predicate.clone())),
                OpKind::Project { exprs } => stages.push(KernelStage::Map(
                    exprs.iter().map(|(e, _)| e.clone()).collect(),
                )),
                _ => return None,
            }
        }
        Some(FusedProgram { stages })
    }

    /// Number of fused stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Push a single-sided element (an insert or a delete) through the
    /// chain. `None` means a filter dropped it.
    pub fn apply_one(
        &self,
        t: &Tuple,
        scratch: &mut KernelScratch,
    ) -> StorageResult<Option<Tuple>> {
        let mut lane = Lane::new(t, &mut scratch.old);
        for stage in &self.stages {
            match stage {
                KernelStage::Filter(p) => {
                    if !p.eval_predicate_slice(lane.row())? {
                        return Ok(None);
                    }
                }
                KernelStage::Map(exprs) => lane.map(exprs)?,
            }
        }
        Ok(Some(lane.finish()))
    }

    /// Push a modify pair through the chain, tracking the split state a
    /// per-operator walk would produce. `None` means both sides were
    /// filtered out.
    pub fn apply_pair(
        &self,
        old: &Tuple,
        new: &Tuple,
        scratch: &mut KernelScratch,
    ) -> StorageResult<Option<PairOutcome>> {
        let mut old_lane = Some(Lane::new(old, &mut scratch.old));
        let mut new_lane = Some(Lane::new(new, &mut scratch.new));
        for stage in &self.stages {
            match stage {
                KernelStage::Filter(p) => {
                    if let Some(lane) = &old_lane {
                        if !p.eval_predicate_slice(lane.row())? {
                            old_lane = None;
                        }
                    }
                    if let Some(lane) = &new_lane {
                        if !p.eval_predicate_slice(lane.row())? {
                            new_lane = None;
                        }
                    }
                    if old_lane.is_none() && new_lane.is_none() {
                        return Ok(None);
                    }
                }
                KernelStage::Map(exprs) => {
                    if let Some(lane) = &mut old_lane {
                        lane.map(exprs)?;
                    }
                    if let Some(lane) = &mut new_lane {
                        lane.map(exprs)?;
                    }
                }
            }
        }
        Ok(Some(match (old_lane, new_lane) {
            (Some(o), Some(n)) => PairOutcome::Modify(o.finish(), n.finish()),
            (Some(o), None) => PairOutcome::DeleteOld(o.finish()),
            (None, Some(n)) => PairOutcome::InsertNew(n.finish()),
            (None, None) => unreachable!("both-dropped pairs return early"),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::CmpOp;
    use spacetime_storage::tuple;

    fn gt100_then_project() -> FusedProgram {
        // SELECT col1, col2*2 WHERE col2 > 100
        FusedProgram::compile(&[
            OpKind::Select {
                predicate: ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(100)),
            },
            OpKind::Project {
                exprs: vec![
                    (ScalarExpr::col(1), "DName".into()),
                    (
                        ScalarExpr::bin(
                            crate::scalar::BinOp::Mul,
                            ScalarExpr::col(2),
                            ScalarExpr::lit(2),
                        ),
                        "Double".into(),
                    ),
                ],
            },
        ])
        .expect("select/project chain compiles")
    }

    #[test]
    fn compile_refuses_access_ops() {
        assert!(FusedProgram::compile(&[OpKind::Distinct]).is_none());
    }

    #[test]
    fn single_sided_filters_and_maps() {
        let prog = gt100_then_project();
        let mut scratch = KernelScratch::default();
        let kept = prog
            .apply_one(&tuple!["a", "Sales", 120], &mut scratch)
            .unwrap();
        assert_eq!(kept, Some(tuple!["Sales", 240]));
        let dropped = prog
            .apply_one(&tuple!["b", "Sales", 90], &mut scratch)
            .unwrap();
        assert_eq!(dropped, None);
    }

    #[test]
    fn pair_splits_on_filter_disagreement() {
        let prog = gt100_then_project();
        let mut scratch = KernelScratch::default();
        // Old fails the filter, new passes: becomes an insert of the new.
        let out = prog
            .apply_pair(
                &tuple!["a", "Sales", 90],
                &tuple!["a", "Sales", 130],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(out, Some(PairOutcome::InsertNew(tuple!["Sales", 260])));
        // Both pass: still a pair.
        let out = prog
            .apply_pair(
                &tuple!["a", "Sales", 110],
                &tuple!["a", "Sales", 130],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(
            out,
            Some(PairOutcome::Modify(
                tuple!["Sales", 220],
                tuple!["Sales", 260]
            ))
        );
        // Both fail: dropped.
        let out = prog
            .apply_pair(
                &tuple!["a", "Sales", 10],
                &tuple!["a", "Sales", 20],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(out, None);
    }

    #[test]
    fn identity_chain_borrows_the_input() {
        let prog = FusedProgram::compile(&[OpKind::Select {
            predicate: ScalarExpr::lit(true),
        }])
        .unwrap();
        let mut scratch = KernelScratch::default();
        let t = tuple!["x", 1];
        let out = prog.apply_one(&t, &mut scratch).unwrap().unwrap();
        assert_eq!(out, t);
    }
}
