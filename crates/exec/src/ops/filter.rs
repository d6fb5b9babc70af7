//! Predicate filter.

use volcano_rel::value::Tuple;
use volcano_rel::{CmpOp, Value};

use crate::iterator::{BoxedOperator, Operator};

/// A conjunction compiled to tuple positions.
#[derive(Debug, Clone)]
pub struct CompiledPred {
    terms: Vec<(usize, CmpOp, Value)>,
}

impl CompiledPred {
    /// Build from `(position, op, literal)` triples.
    pub fn new(terms: Vec<(usize, CmpOp, Value)>) -> Self {
        CompiledPred { terms }
    }

    /// SQL three-valued semantics collapsed to accept/reject: a
    /// comparison involving NULL rejects the tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        self.terms.iter().all(|(pos, op, lit)| {
            t[*pos]
                .sql_cmp(lit)
                .map(|ord| op.eval(ord))
                .unwrap_or(false)
        })
    }

    /// The `(position, op, literal)` conjuncts, for vectorized
    /// evaluation by the vectorized predicate kernels.
    pub fn terms(&self) -> &[(usize, CmpOp, Value)] {
        &self.terms
    }

    /// Move every conjunct from position `p` to `at[p]` (the vectorized
    /// lowering's column pruning renumbers positions).
    pub(crate) fn remap(&mut self, at: &[usize]) {
        self.terms.iter_mut().for_each(|t| t.0 = at[t.0]);
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Trivially true?
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The standalone filter operator; order-preserving.
pub struct Filter {
    child: BoxedOperator,
    pred: CompiledPred,
    /// Input rows examined (cumulative across re-opens).
    rows_in: u64,
}

impl Filter {
    /// Filter `child` by `pred`.
    pub fn new(child: BoxedOperator, pred: CompiledPred) -> Self {
        Filter {
            child,
            pred,
            rows_in: 0,
        }
    }
}

impl Operator for Filter {
    fn open(&mut self) {
        self.child.open();
    }

    fn next(&mut self) -> Option<Tuple> {
        loop {
            let t = self.child.next()?;
            self.rows_in += 1;
            if self.pred.eval(&t) {
                return Some(t);
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn name(&self) -> &'static str {
        "filter"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("rows_in", self.rows_in)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_eval_semantics() {
        let p = CompiledPred::new(vec![(0, CmpOp::Eq, Value::Int(3))]);
        assert!(p.eval(&vec![Value::Int(3)]));
        assert!(!p.eval(&vec![Value::Int(4)]));
        // NULL rejects.
        assert!(!p.eval(&vec![Value::Null]));
        let range = CompiledPred::new(vec![(0, CmpOp::Lt, Value::Int(10))]);
        assert!(range.eval(&vec![Value::Int(9)]));
        assert!(!range.eval(&vec![Value::Int(10)]));
    }
}
