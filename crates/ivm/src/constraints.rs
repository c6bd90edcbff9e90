//! SQL-92 assertions as empty views (§1, §6).
//!
//! > *"These integrity constraints can be modeled as materialized views
//! > whose results are required to be empty. … An assertion can be modeled
//! > as a materialized view, and the problem then becomes one of computing
//! > the incremental update to the materialized view."*
//!
//! An assertion is a flag on an engine ([`IvmEngine::assertion`]): the
//! constraint holds while that engine's view is empty. Because the view
//! (and whatever auxiliary views the optimizer picked) is incrementally
//! maintained, *checking* the constraint after an update is free — the
//! interesting cost, which the paper optimizes, is maintaining it.

use spacetime_storage::{Bag, Catalog, StorageResult};

use crate::engine::{IvmEngine, PlannedUpdate};

/// A violation: the assertion plus sample witness tuples.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated assertion's name.
    pub assertion: String,
    /// Rendered witness tuples (up to a small sample).
    pub witnesses: Vec<String>,
}

impl IvmEngine {
    /// The violation of the assertion this engine backs, against current
    /// state; `None` when the view is empty or backs no assertion.
    pub(crate) fn violation(&self, catalog: &Catalog) -> StorageResult<Option<Violation>> {
        match &self.assertion {
            Some(name) => check(name, &self.name, catalog),
            None => Ok(None),
        }
    }

    /// The violation the view would hold *after* a planned update commits
    /// — this is how the database aborts violating transactions without
    /// applying them.
    pub(crate) fn violation_after(
        &self,
        catalog: &Catalog,
        planned: &PlannedUpdate,
    ) -> StorageResult<Option<Violation>> {
        let Some(name) = &self.assertion else {
            return Ok(None);
        };
        let mut future = catalog.table(&self.name)?.relation.data().clone();
        if let Some(delta) = planned.root_delta(self.root) {
            delta.apply_to(&mut future)?;
        }
        Ok(violation_from(name, &future))
    }
}

/// Assertion `name` against its backing `view`'s current contents.
fn check(name: &str, view: &str, catalog: &Catalog) -> StorageResult<Option<Violation>> {
    Ok(violation_from(name, catalog.table(view)?.relation.data()))
}

fn violation_from(name: &str, data: &Bag) -> Option<Violation> {
    if data.is_empty() {
        return None;
    }
    let witnesses: Vec<String> = data
        .sorted()
        .into_iter()
        .take(3)
        .map(|(t, _)| t.to_string())
        .collect();
    Some(Violation {
        assertion: name.to_string(),
        witnesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_storage::{tuple, DataType, Schema};

    #[test]
    fn empty_view_satisfies() {
        let mut cat = Catalog::new();
        cat.create_materialized("V", Schema::of_table("V", &[("x", DataType::Int)]))
            .unwrap();
        assert!(check("C", "V", &cat).unwrap().is_none());
    }

    #[test]
    fn nonempty_view_reports_witnesses() {
        let mut cat = Catalog::new();
        cat.create_materialized("V", Schema::of_table("V", &[("x", DataType::Int)]))
            .unwrap();
        let mut io = spacetime_storage::IoMeter::new();
        for i in 0..5 {
            cat.table_mut("V")
                .unwrap()
                .relation
                .insert(tuple![i], 1, &mut io)
                .unwrap();
        }
        let v = check("C", "V", &cat).unwrap().unwrap();
        assert_eq!(v.assertion, "C");
        assert_eq!(v.witnesses.len(), 3, "sample capped at 3");
    }
}
