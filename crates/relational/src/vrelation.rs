//! V-relations: relations whose columns are named by query variables.
//!
//! Section 3.1 of the paper works with relations `P ⊆ D^V` over the variable
//! set `V = vars(Q1)`.  Such a relation induces a database instance
//! `Π_{Q1}(P)` (Eq. 4) by projecting `P` onto the atoms of `Q1`, and serves as
//! a *witness* for non-containment when `|P| > |hom(Q2, Π_{Q1}(P))|`
//! (Fact 3.2).  Theorem 3.4 shows that witnesses can be taken of two special
//! shapes — *product* relations and *normal* relations (Definition 3.3) — and
//! this module provides constructors for both, plus the domain product of
//! Definition B.1 and the total-uniformity test of Definition 4.5.

use crate::query::{ConjunctiveQuery, Var};
use crate::structure::Structure;
use crate::value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A finite relation with named columns (`P ⊆ D^V`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VRelation {
    columns: Vec<Var>,
    rows: BTreeSet<Tuple>,
}

impl VRelation {
    /// Creates an empty relation with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if a column name is repeated.
    pub fn new(columns: Vec<Var>) -> VRelation {
        let distinct: BTreeSet<&Var> = columns.iter().collect();
        assert_eq!(
            distinct.len(),
            columns.len(),
            "duplicate column names in VRelation"
        );
        VRelation {
            columns,
            rows: BTreeSet::new(),
        }
    }

    /// Creates a relation from rows.
    ///
    /// # Panics
    ///
    /// Panics if a row's length does not match the number of columns.
    pub fn from_rows(columns: Vec<Var>, rows: impl IntoIterator<Item = Tuple>) -> VRelation {
        let mut rel = VRelation::new(columns);
        let arity = rel.columns.len();
        // Collecting sorts once and bulk-builds the set, which is linear
        // when the rows already come in order.
        rel.rows = rows
            .into_iter()
            .inspect(|row| assert_eq!(row.len(), arity, "row arity mismatch"))
            .collect();
        rel
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[Var] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Inserts a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length does not match the number of columns.
    pub fn insert(&mut self, row: Tuple) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.insert(row);
    }

    /// Index of a column by name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// Returns the value of `column` in `row`.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn value(&self, row: &Tuple, column: &str) -> Value {
        row[self.column_index(column).expect("unknown column")].clone()
    }

    /// Standard projection `Π_X(P)` onto a list of existing columns
    /// (duplicates removed, set semantics).
    pub fn project(&self, columns: &[Var]) -> VRelation {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.column_index(c)
                    .unwrap_or_else(|| panic!("unknown column {c}"))
            })
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| indices.iter().map(|&i| row[i].clone()).collect::<Tuple>());
        VRelation::from_rows(columns.to_vec(), rows)
    }

    /// Generalized projection `Π_φ(P)` for a function `φ : Y → V` given as a
    /// list of `(output column, source column)` pairs (Section 3.1).  Output
    /// columns may repeat source columns; e.g. with `φ = [(y1,x1),(y2,x1)]`,
    /// each row `(a, …)` produces `(a, a)`.
    pub fn generalized_project(&self, phi: &[(Var, Var)]) -> VRelation {
        let indices: Vec<usize> = phi
            .iter()
            .map(|(_, src)| {
                self.column_index(src)
                    .unwrap_or_else(|| panic!("unknown column {src}"))
            })
            .collect();
        let out_columns: Vec<Var> = phi.iter().map(|(out, _)| out.clone()).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| indices.iter().map(|&i| row[i].clone()).collect::<Tuple>());
        VRelation::from_rows(out_columns, rows)
    }

    /// The database instance `Π_{Q}(P)` induced by projecting this relation
    /// onto every atom of `query` (Eq. 4): for each atom `A` with relation
    /// name `R`, every row of `P` contributes the tuple `(f(x_1),…,f(x_a))`
    /// where `x_i` are the (possibly repeated) variables of `A`.
    ///
    /// # Panics
    ///
    /// Panics if an atom of `query` uses a variable that is not a column.
    pub fn induced_database(&self, query: &ConjunctiveQuery) -> Structure {
        let mut db = Structure::new(query.vocabulary());
        for atom in query.atoms() {
            let indices: Vec<usize> = atom
                .args
                .iter()
                .map(|v| {
                    self.column_index(v)
                        .unwrap_or_else(|| panic!("query variable {v} is not a column"))
                })
                .collect();
            for row in &self.rows {
                let tuple: Tuple = indices.iter().map(|&i| row[i].clone()).collect();
                db.add_fact(&atom.relation, tuple);
            }
        }
        db
    }

    /// Builds a product relation `P = Π_x S_x` (Definition 3.3): one unary
    /// domain per column, all combinations.
    pub fn product(factors: &[(Var, Vec<Value>)]) -> VRelation {
        let columns: Vec<Var> = factors.iter().map(|(c, _)| c.clone()).collect();
        let mut rel = VRelation::new(columns);
        let mut stack: Vec<Tuple> = vec![Vec::new()];
        for (_, values) in factors {
            let mut next = Vec::with_capacity(stack.len() * values.len());
            for prefix in &stack {
                for value in values {
                    let mut row = prefix.clone();
                    row.push(value.clone());
                    next.push(row);
                }
            }
            stack = next;
        }
        for row in stack {
            if row.len() == rel.columns.len() {
                rel.rows.insert(row);
            }
        }
        rel
    }

    /// Builds a normal relation (Definition 3.3): given a product relation `P`
    /// over columns `V` and a map `ψ : W → 2^V` (each output column is a set
    /// of product columns), the result has one row `ψ·f` per row `f ∈ P`,
    /// where the value of output column `w` is the tuple of `f`-values of
    /// `ψ(w)` (a single bare value when `|ψ(w)| = 1`, and a fresh constant
    /// when `ψ(w) = ∅`).
    pub fn normal_relation(product: &VRelation, psi: &[(Var, BTreeSet<Var>)]) -> VRelation {
        let out_columns: Vec<Var> = psi.iter().map(|(w, _)| w.clone()).collect();
        let mut rel = VRelation::new(out_columns);
        for row in product.rows() {
            let mut out_row: Tuple = Vec::with_capacity(psi.len());
            for (_, sources) in psi {
                let components: Vec<Value> =
                    sources.iter().map(|s| product.value(row, s)).collect();
                let value = match components.len() {
                    0 => Value::text("*"),
                    1 => components.into_iter().next().expect("one component"),
                    _ => Value::tuple(components),
                };
                out_row.push(value);
            }
            rel.insert(out_row);
        }
        rel
    }

    /// The step relation `P_W` of Section 3.2, generalized to `m ≥ 2` tuples:
    /// columns in `w` hold the constant `1` in every row, the remaining
    /// columns all hold the row index `j ∈ {1, …, m}`.  Its entropy is
    /// `log2(m) · h_W`, the scaled step function at `W`.
    pub fn step_relation(columns: &[Var], w: &BTreeSet<Var>, m: u64) -> VRelation {
        assert!(m >= 1, "step relation needs at least one tuple");
        let mut rel = VRelation::new(columns.to_vec());
        for j in 1..=m {
            let row: Tuple = columns
                .iter()
                .map(|c| {
                    if w.contains(c) {
                        Value::int(1)
                    } else {
                        Value::int(j as i64)
                    }
                })
                .collect();
            rel.insert(row);
        }
        rel
    }

    /// Domain product `P ⊗ Q` (Definition B.1): both relations must have the
    /// same columns; each pair of rows is combined position-wise into pairs.
    ///
    /// # Panics
    ///
    /// Panics if the column lists differ.
    pub fn domain_product(&self, other: &VRelation) -> VRelation {
        assert_eq!(
            self.columns, other.columns,
            "domain product requires identical columns"
        );
        let mut rel = VRelation::new(self.columns.clone());
        for f in self.rows() {
            for g in other.rows() {
                let row: Tuple = f
                    .iter()
                    .zip(g.iter())
                    .map(|(a, b)| Value::pair(a.clone(), b.clone()))
                    .collect();
                rel.insert(row);
            }
        }
        rel
    }

    /// Checks total uniformity (Definition 4.5): the uniform distribution on
    /// the rows has uniform marginals on *every* subset of columns, i.e. for
    /// every subset `X` all values of `Π_X` have the same number of pre-images.
    ///
    /// The check is exponential in the number of columns; the relations it is
    /// applied to in this crate have at most a dozen columns.
    pub fn is_totally_uniform(&self) -> bool {
        if self.rows.is_empty() {
            return true;
        }
        let k = self.columns.len();
        for mask in 1u64..(1u64 << k) {
            let indices: Vec<usize> = (0..k).filter(|i| mask & (1 << i) != 0).collect();
            let mut counts: BTreeMap<Tuple, usize> = BTreeMap::new();
            for row in &self.rows {
                let key: Tuple = indices.iter().map(|&i| row[i].clone()).collect();
                *counts.entry(key).or_insert(0) += 1;
            }
            let mut values = counts.values();
            let first = *values.next().expect("non-empty relation has counts");
            if values.any(|&c| c != first) {
                return false;
            }
        }
        true
    }

    /// The degree `deg_P(Y | X)` of Lemma 4.6 for a totally uniform relation:
    /// `|Π_{XY}(P)| / |Π_X(P)|`.  Computed directly from projections, so it is
    /// meaningful for any relation, but only matches the paper's definition
    /// when the relation is totally uniform.
    pub fn degree(&self, y: &[Var], x: &[Var]) -> f64 {
        let mut xy: Vec<Var> = x.to_vec();
        for v in y {
            if !xy.contains(v) {
                xy.push(v.clone());
            }
        }
        let xy_count = if xy.is_empty() {
            1
        } else {
            self.project(&xy).len()
        };
        let x_count = if x.is_empty() {
            1
        } else {
            self.project(x).len()
        };
        xy_count as f64 / x_count as f64
    }
}

impl fmt::Display for VRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "({})", self.columns.join(","))?;
        for row in &self.rows {
            write!(f, "  ")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Atom;

    fn cols(names: &[&str]) -> Vec<Var> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn basic_construction_and_projection() {
        let mut rel = VRelation::new(cols(&["x", "y"]));
        rel.insert(vec![Value::int(1), Value::int(2)]);
        rel.insert(vec![Value::int(1), Value::int(3)]);
        rel.insert(vec![Value::int(1), Value::int(2)]); // duplicate
        assert_eq!(rel.len(), 2);
        let px = rel.project(&cols(&["x"]));
        assert_eq!(px.len(), 1);
        let pyx = rel.project(&cols(&["y", "x"]));
        assert_eq!(pyx.columns(), &["y", "x"]);
        assert_eq!(pyx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        VRelation::new(cols(&["x", "x"]));
    }

    #[test]
    fn generalized_projection_repeats_columns() {
        // Example from Section 3.1: Q1 = R(x,x,y), P = {(a,b)} gives R^D = {(a,a,b)}.
        let rel = VRelation::from_rows(
            cols(&["x", "y"]),
            vec![vec![Value::text("a"), Value::text("b")]],
        );
        let projected = rel.generalized_project(&[
            ("p1".to_string(), "x".to_string()),
            ("p2".to_string(), "x".to_string()),
            ("p3".to_string(), "y".to_string()),
        ]);
        assert_eq!(projected.len(), 1);
        assert_eq!(
            projected.rows().next().unwrap(),
            &vec![Value::text("a"), Value::text("a"), Value::text("b")]
        );
    }

    #[test]
    fn induced_database_follows_eq4() {
        // Q1 = R(x,x,y): P = {(a,b)} induces R^D = {(a,a,b)}.
        let q = ConjunctiveQuery::boolean("Q1", vec![Atom::new("R", ["x", "x", "y"])]).unwrap();
        let rel = VRelation::from_rows(
            cols(&["x", "y"]),
            vec![vec![Value::text("a"), Value::text("b")]],
        );
        let db = rel.induced_database(&q);
        assert!(db.contains_fact(
            "R",
            &vec![Value::text("a"), Value::text("a"), Value::text("b")]
        ));
        assert_eq!(db.num_facts("R"), 1);
    }

    #[test]
    fn product_relation() {
        let rel = VRelation::product(&[
            ("x".to_string(), vec![Value::int(1), Value::int(2)]),
            (
                "y".to_string(),
                vec![Value::int(1), Value::int(2), Value::int(3)],
            ),
        ]);
        assert_eq!(rel.len(), 6);
        assert!(rel.is_totally_uniform());
    }

    #[test]
    fn normal_relation_example_3_5() {
        // P = {(u,u,v,v) | u,v in [n]} over columns x1,x2,x1',x2' from Example 3.5.
        let product = VRelation::product(&[
            ("u".to_string(), (1..=3).map(Value::int).collect()),
            ("v".to_string(), (1..=3).map(Value::int).collect()),
        ]);
        let psi: Vec<(Var, BTreeSet<Var>)> = vec![
            ("x1".to_string(), ["u".to_string()].into_iter().collect()),
            ("x2".to_string(), ["u".to_string()].into_iter().collect()),
            ("x1p".to_string(), ["v".to_string()].into_iter().collect()),
            ("x2p".to_string(), ["v".to_string()].into_iter().collect()),
        ];
        let normal = VRelation::normal_relation(&product, &psi);
        assert_eq!(normal.len(), 9);
        assert!(normal.is_totally_uniform());
        // Columns x1 and x2 are equal in every row.
        for row in normal.rows() {
            assert_eq!(row[0], row[1]);
            assert_eq!(row[2], row[3]);
        }
    }

    #[test]
    fn normal_relation_with_concatenated_column() {
        // The four-attribute example from Definition 3.3: {(uv, u, v, v)}.
        let product = VRelation::product(&[
            ("u".to_string(), (1..=2).map(Value::int).collect()),
            ("v".to_string(), (1..=2).map(Value::int).collect()),
        ]);
        let psi: Vec<(Var, BTreeSet<Var>)> = vec![
            (
                "a".to_string(),
                ["u".to_string(), "v".to_string()].into_iter().collect(),
            ),
            ("b".to_string(), ["u".to_string()].into_iter().collect()),
            ("c".to_string(), ["v".to_string()].into_iter().collect()),
            ("d".to_string(), ["v".to_string()].into_iter().collect()),
        ];
        let normal = VRelation::normal_relation(&product, &psi);
        assert_eq!(normal.len(), 4);
        // The first column is a key.
        assert_eq!(normal.project(&cols(&["a"])).len(), 4);
        // The last two columns are equal.
        for row in normal.rows() {
            assert_eq!(row[2], row[3]);
        }
        assert!(normal.is_totally_uniform());
    }

    #[test]
    fn step_relation_shape() {
        let w: BTreeSet<Var> = ["y".to_string()].into_iter().collect();
        let rel = VRelation::step_relation(&cols(&["x", "y", "z"]), &w, 4);
        assert_eq!(rel.len(), 4);
        for row in rel.rows() {
            assert_eq!(row[1], Value::int(1)); // column y is constant
            assert_eq!(row[0], row[2]); // x and z always agree
        }
        assert!(rel.is_totally_uniform());
        assert_eq!(rel.project(&cols(&["x"])).len(), 4);
        assert_eq!(rel.project(&cols(&["y"])).len(), 1);
    }

    #[test]
    fn domain_product_multiplies_sizes() {
        let w1: BTreeSet<Var> = ["x".to_string()].into_iter().collect();
        let w2: BTreeSet<Var> = ["y".to_string()].into_iter().collect();
        let p1 = VRelation::step_relation(&cols(&["x", "y"]), &w1, 2);
        let p2 = VRelation::step_relation(&cols(&["x", "y"]), &w2, 3);
        let product = p1.domain_product(&p2);
        assert_eq!(product.len(), 6);
        assert!(product.is_totally_uniform());
        // Projection sizes multiply too: p1 varies y over 2 values (x is the
        // constant column), p2 varies x over 3 values.
        assert_eq!(product.project(&cols(&["y"])).len(), 2);
        assert_eq!(product.project(&cols(&["x"])).len(), 3);
    }

    #[test]
    fn total_uniformity_detects_skew() {
        let rel = VRelation::from_rows(
            cols(&["x", "y"]),
            vec![
                vec![Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(2), Value::int(1)],
            ],
        );
        assert!(!rel.is_totally_uniform());
        let parity = VRelation::from_rows(
            cols(&["x", "y", "z"]),
            (0..2i64)
                .flat_map(|a| {
                    (0..2i64).map(move |b| vec![Value::int(a), Value::int(b), Value::int(a ^ b)])
                })
                .collect::<Vec<_>>(),
        );
        assert!(parity.is_totally_uniform());
    }

    #[test]
    fn degrees() {
        let w: BTreeSet<Var> = BTreeSet::new();
        let rel = VRelation::step_relation(&cols(&["x", "y"]), &w, 4);
        // deg(y | x) = |Pi_xy| / |Pi_x| = 4/4 = 1.
        assert_eq!(rel.degree(&cols(&["y"]), &cols(&["x"])), 1.0);
        // deg(y | {}) = 4.
        assert_eq!(rel.degree(&cols(&["y"]), &[]), 4.0);
    }

    #[test]
    fn empty_relation_is_totally_uniform() {
        let rel = VRelation::new(cols(&["x"]));
        assert!(rel.is_totally_uniform());
        assert!(rel.is_empty());
    }
}
