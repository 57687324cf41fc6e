//! Columnar evidence batches: the bulk-evaluation input format.
//!
//! An [`EvidenceBatch`] holds N evidence instances ("lanes") in
//! structure-of-arrays layout: one column of observed states per variable,
//! `column(var)[lane]`. A batched circuit evaluator streams each
//! indicator's column across all lanes at once instead of re-walking a
//! pointer-based [`Evidence`] per instance, which is what makes
//! `problp-engine`'s lane-parallel sweeps cache-friendly.

use crate::dataset::LabeledDataset;
use crate::error::BayesError;
use crate::evidence::Evidence;
use crate::variable::VarId;

/// The column value marking an unobserved (marginalized) variable.
pub const UNOBSERVED: i32 = -1;

/// What a serving layer is asked to compute for every lane of an
/// [`EvidenceBatch`] — the descriptor `problp-engine`'s
/// `Engine::evaluate_query` dispatches on.
///
/// The three kinds mirror the paper's query taxonomy (§3.2): marginal
/// `Pr(e)`, most probable explanation `max_x Pr(x, e)` with its argmax,
/// and the conditional posterior `Pr(q = s | e)` over every state `s`
/// of a query variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchQuery {
    /// The probability of each lane's evidence, `Pr(e)`.
    Marginal,
    /// The most probable completion of each lane's evidence and its
    /// joint probability, `argmax/max_x Pr(x, e)`.
    Mpe,
    /// The posterior `Pr(q = s | e)` for every state `s` of `query_var`,
    /// served as one joint (numerator) lane per state over a shared
    /// marginal (denominator) lane ([`EvidenceBatch::with_state_blocks`]).
    Conditional {
        /// The query variable `q`; an observation of it in the batch is
        /// ignored.
        query_var: VarId,
    },
}

/// N evidence instances in structure-of-arrays (columnar) layout.
///
/// Lane `l` of the batch is one evidence instance; `column(var)[l]` is its
/// observed state for `var`, or [`UNOBSERVED`].
///
/// # Examples
///
/// ```
/// use problp_bayes::{Evidence, EvidenceBatch, VarId};
///
/// let mut e = Evidence::empty(3);
/// e.observe(VarId::from_index(1), 2);
/// let batch = EvidenceBatch::from_evidences(3, &[Evidence::empty(3), e])?;
/// assert_eq!(batch.lanes(), 2);
/// assert_eq!(batch.state(1, VarId::from_index(1)), Some(2));
/// assert_eq!(batch.state(0, VarId::from_index(1)), None);
/// # Ok::<(), problp_bayes::BayesError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvidenceBatch {
    var_count: usize,
    lanes: usize,
    /// `columns[var][lane]`: observed state or [`UNOBSERVED`].
    columns: Vec<Vec<i32>>,
}

impl EvidenceBatch {
    /// Creates an empty batch over `var_count` variables.
    pub fn new(var_count: usize) -> Self {
        EvidenceBatch {
            var_count,
            lanes: 0,
            columns: vec![Vec::new(); var_count],
        }
    }

    /// Builds a batch from a slice of evidences.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidDataset`] if any evidence ranges over a
    /// different number of variables than `var_count`.
    pub fn from_evidences(var_count: usize, evidences: &[Evidence]) -> Result<Self, BayesError> {
        let mut batch = EvidenceBatch::new(var_count);
        for (i, e) in evidences.iter().enumerate() {
            if e.len() != var_count {
                return Err(BayesError::InvalidDataset {
                    reason: format!(
                        "evidence {i} ranges over {} variables, batch expects {var_count}",
                        e.len()
                    ),
                });
            }
            batch.push(e);
        }
        Ok(batch)
    }

    /// Builds a batch of classifier test instances from a dataset: each
    /// row becomes one lane observing `feature_vars[j] = row[j]`, with
    /// every other variable (most importantly the class) unobserved.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidDataset`] if the dataset's feature
    /// count does not match `feature_vars`, or a feature variable is out
    /// of range.
    pub fn from_dataset(
        dataset: &LabeledDataset,
        feature_vars: &[VarId],
        var_count: usize,
    ) -> Result<Self, BayesError> {
        if dataset.feature_count() != feature_vars.len() {
            return Err(BayesError::InvalidDataset {
                reason: format!(
                    "dataset has {} features but {} feature variables were given",
                    dataset.feature_count(),
                    feature_vars.len()
                ),
            });
        }
        if let Some(v) = feature_vars.iter().find(|v| v.index() >= var_count) {
            return Err(BayesError::InvalidDataset {
                reason: format!("feature variable {v} out of range for {var_count} variables"),
            });
        }
        let mut batch = EvidenceBatch::new(var_count);
        for row in dataset.features() {
            let lane = batch.push_unobserved();
            for (&var, &state) in feature_vars.iter().zip(row) {
                batch.columns[var.index()][lane] = state as i32;
            }
        }
        Ok(batch)
    }

    /// Appends one evidence instance as a new lane.
    ///
    /// # Panics
    ///
    /// Panics if the evidence ranges over a different number of variables.
    pub fn push(&mut self, evidence: &Evidence) {
        assert_eq!(
            evidence.len(),
            self.var_count,
            "evidence length does not match the batch's variable count"
        );
        let lane = self.push_unobserved();
        for (var, state) in evidence.iter() {
            self.columns[var.index()][lane] = state as i32;
        }
    }

    /// Appends a lane with nothing observed, returning its index.
    pub fn push_unobserved(&mut self) -> usize {
        for col in &mut self.columns {
            col.push(UNOBSERVED);
        }
        let lane = self.lanes;
        self.lanes += 1;
        lane
    }

    /// Number of evidence instances (lanes).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Returns `true` if the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Number of variables each lane ranges over.
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// The state column of `var`: one entry per lane, [`UNOBSERVED`] where
    /// the variable is marginalized.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn column(&self, var: VarId) -> &[i32] {
        &self.columns[var.index()]
    }

    /// The observed state of `var` in `lane`, or `None`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `var` is out of range.
    pub fn state(&self, lane: usize, var: VarId) -> Option<usize> {
        assert!(lane < self.lanes, "lane out of range");
        let s = self.columns[var.index()][lane];
        (s >= 0).then_some(s as usize)
    }

    /// The indicator value `λ_{var=state}` of `lane`: 1.0 unless the
    /// lane's evidence contradicts `var = state`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `var` is out of range.
    pub fn indicator(&self, lane: usize, var: VarId, state: usize) -> f64 {
        match self.state(lane, var) {
            Some(observed) if observed != state => 0.0,
            _ => 1.0,
        }
    }

    /// Reconstructs one lane as an [`Evidence`] (for interoperating with
    /// the scalar evaluation paths).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn evidence(&self, lane: usize) -> Evidence {
        let mut e = Evidence::empty(self.var_count);
        for v in 0..self.var_count {
            if let Some(s) = self.state(lane, VarId::from_index(v)) {
                e.observe(VarId::from_index(v), s);
            }
        }
        e
    }

    /// The lane-expanded batch of a conditional query on `var` with
    /// `states` states: `states + 1` blocks of [`EvidenceBatch::lanes`]
    /// lanes each, built in one pass. Block 0 is this batch with `var`
    /// unobserved in every lane (the marginals `Pr(e)`); block `1 + s`
    /// is this batch with `var` observed to `s` in every lane (the
    /// joints `Pr(var = s, e)`). Sweeping it once serves every lane's
    /// posterior over `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_state_blocks(&self, var: VarId, states: usize) -> Self {
        assert!(var.index() < self.var_count, "variable out of range");
        let blocks = states + 1;
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(v, col)| {
                let mut out = Vec::with_capacity(col.len() * blocks);
                if v == var.index() {
                    out.resize(col.len(), UNOBSERVED);
                    for s in 0..states {
                        out.resize(out.len() + col.len(), s as i32);
                    }
                } else {
                    for _ in 0..blocks {
                        out.extend_from_slice(col);
                    }
                }
                out
            })
            .collect();
        EvidenceBatch {
            var_count: self.var_count,
            lanes: self.lanes * blocks,
            columns,
        }
    }

    /// Appends every lane of `other`, in order — the inverse of
    /// [`EvidenceBatch::split_off`], reassembling split batches.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidDataset`] if the batches range over
    /// different numbers of variables.
    pub fn merge(&mut self, other: &EvidenceBatch) -> Result<(), BayesError> {
        if other.var_count != self.var_count {
            return Err(BayesError::InvalidDataset {
                reason: format!(
                    "cannot merge a batch over {} variables into one over {}",
                    other.var_count, self.var_count
                ),
            });
        }
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.extend_from_slice(src);
        }
        self.lanes += other.lanes;
        Ok(())
    }

    /// Splits the batch in two at `at`: `self` keeps lanes `..at` in
    /// place (no copying), the returned batch holds lanes `at..` — the
    /// admission queue's cut when a coalescing group exceeds the
    /// dispatch size.
    ///
    /// # Panics
    ///
    /// Panics if `at > lanes`.
    pub fn split_off(&mut self, at: usize) -> EvidenceBatch {
        assert!(at <= self.lanes, "split point out of range");
        let columns = self.columns.iter_mut().map(|c| c.split_off(at)).collect();
        let tail = EvidenceBatch {
            var_count: self.var_count,
            lanes: self.lanes - at,
            columns,
        };
        self.lanes = at;
        tail
    }
}

/// The canonical bulk-workload evidence pool: the empty evidence plus
/// every single-variable observation `{var = state}`, in variable order.
///
/// This is the instance mix the error sweeps, the throughput studies and
/// the CLI all cycle through; sharing it keeps their workloads
/// comparable.
pub fn single_variable_evidences(var_arities: &[usize]) -> Vec<Evidence> {
    let var_count = var_arities.len();
    let mut out = vec![Evidence::empty(var_count)];
    for (v, &arity) in var_arities.iter().enumerate() {
        for s in 0..arity {
            let mut e = Evidence::empty(var_count);
            e.observe(VarId::from_index(v), s);
            out.push(e);
        }
    }
    out
}

impl std::fmt::Display for EvidenceBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EvidenceBatch({} lanes over {} variables)",
            self.lanes, self.var_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn round_trips_evidences() {
        let mut e0 = Evidence::empty(3);
        e0.observe(v(0), 1);
        let mut e1 = Evidence::empty(3);
        e1.observe(v(2), 0);
        let batch = EvidenceBatch::from_evidences(3, &[e0.clone(), e1.clone()]).unwrap();
        assert_eq!(batch.lanes(), 2);
        assert_eq!(batch.evidence(0), e0);
        assert_eq!(batch.evidence(1), e1);
    }

    #[test]
    fn columns_are_lane_major() {
        let mut e0 = Evidence::empty(2);
        e0.observe(v(1), 1);
        let batch = EvidenceBatch::from_evidences(2, &[Evidence::empty(2), e0]).unwrap();
        assert_eq!(batch.column(v(0)), &[UNOBSERVED, UNOBSERVED]);
        assert_eq!(batch.column(v(1)), &[UNOBSERVED, 1]);
    }

    #[test]
    fn indicators_match_the_scalar_convention() {
        let mut e = Evidence::empty(2);
        e.observe(v(0), 0);
        let batch = EvidenceBatch::from_evidences(2, std::slice::from_ref(&e)).unwrap();
        assert_eq!(batch.indicator(0, v(0), 0), e.indicator(v(0), 0));
        assert_eq!(batch.indicator(0, v(0), 1), e.indicator(v(0), 1));
        assert_eq!(batch.indicator(0, v(1), 1), 1.0);
    }

    #[test]
    fn with_state_blocks_unobserves_then_clamps_each_block() {
        let mut e = Evidence::empty(2);
        e.observe(v(0), 0);
        e.observe(v(1), 1);
        let batch = EvidenceBatch::from_evidences(2, &[Evidence::empty(2), e]).unwrap();
        let blocks = batch.with_state_blocks(v(0), 2);
        assert_eq!(blocks.lanes(), 6);
        // The marginal block drops the query variable's own observation.
        assert_eq!(blocks.column(v(0)), &[UNOBSERVED, UNOBSERVED, 0, 0, 1, 1]);
        assert_eq!(
            blocks.column(v(1)),
            &[UNOBSERVED, 1, UNOBSERVED, 1, UNOBSERVED, 1]
        );
        // Original untouched; an empty batch stays empty.
        assert_eq!(batch.column(v(0)), &[UNOBSERVED, 0]);
        assert!(EvidenceBatch::new(2).with_state_blocks(v(1), 3).is_empty());
    }

    #[test]
    fn split_off_cuts_in_place() {
        let mut batch = EvidenceBatch::new(2);
        for i in 0..5 {
            let mut e = Evidence::empty(2);
            e.observe(v(0), i % 2);
            batch.push(&e);
        }
        let original = batch.clone();
        let tail = batch.split_off(2);
        assert_eq!(batch.lanes(), 2);
        assert_eq!(tail.lanes(), 3);
        let mut rebuilt = batch.clone();
        rebuilt.merge(&tail).unwrap();
        assert_eq!(rebuilt, original);
        // Degenerate cuts.
        let mut b = original.clone();
        assert_eq!(b.split_off(5).lanes(), 0);
        assert_eq!(b, original);
        let mut b = original.clone();
        let all = b.split_off(0);
        assert_eq!(b.lanes(), 0);
        assert_eq!(all, original);
    }

    #[test]
    fn merge_rejects_mismatched_variable_counts() {
        let mut batch = EvidenceBatch::new(2);
        let err = batch.merge(&EvidenceBatch::new(3)).unwrap_err();
        assert!(matches!(err, BayesError::InvalidDataset { .. }));
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let err = EvidenceBatch::from_evidences(3, &[Evidence::empty(2)]).unwrap_err();
        assert!(matches!(err, BayesError::InvalidDataset { .. }));
    }

    #[test]
    fn from_dataset_observes_features_only() {
        let ds =
            LabeledDataset::new(vec![vec![0, 1], vec![1, 0]], vec![0, 1], vec![2, 2], 2).unwrap();
        // Class variable 0, features at 1 and 2.
        let batch = EvidenceBatch::from_dataset(&ds, &[v(1), v(2)], 3).unwrap();
        assert_eq!(batch.lanes(), 2);
        assert_eq!(batch.state(0, v(0)), None);
        assert_eq!(batch.state(0, v(1)), Some(0));
        assert_eq!(batch.state(0, v(2)), Some(1));
        assert_eq!(batch.state(1, v(1)), Some(1));
    }
}
