//! Typed expressions and predicates over trace columns.
//!
//! Everything is computed in the `u64` domain the store encodes —
//! seconds, bytes, counts — with *saturating* arithmetic, so results are
//! exact integers and every evaluation order produces identical bits
//! (saturating sums of unsigned values are order-insensitive). Division
//! by zero is defined as zero to keep evaluation total.
//!
//! This module holds the trees and their **interval** evaluation
//! ([`Expr::bounds`], [`Pred::zone_verdict`]) over a chunk's [`ZoneMap`]:
//! conservative `[lo, hi]` bounds the planner uses to skip chunks without
//! reading them. Evaluation over decoded rows is the chunk kernel's job
//! (`crate::kernel`), which flattens these trees once per query.

use std::fmt;
use swim_store::format::columns::ChunkView;
use swim_store::ZoneMap;

/// A physical numeric column of the store (the ten columns of
/// [`swim_store::format::columns::ChunkColumns`], in layout order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Col {
    /// Job id.
    Id,
    /// Submit time, seconds since trace epoch.
    Submit,
    /// Wall-clock duration, seconds.
    Duration,
    /// Map-stage input bytes.
    Input,
    /// Shuffle bytes.
    Shuffle,
    /// Output bytes.
    Output,
    /// Total map task-time, slot-seconds.
    MapTime,
    /// Total reduce task-time, slot-seconds.
    ReduceTime,
    /// Number of map tasks.
    MapTasks,
    /// Number of reduce tasks.
    ReduceTasks,
}

impl Col {
    /// All columns, in the store's column layout order.
    pub const ALL: [Col; 10] = [
        Col::Id,
        Col::Submit,
        Col::Duration,
        Col::Input,
        Col::Shuffle,
        Col::Output,
        Col::MapTime,
        Col::ReduceTime,
        Col::MapTasks,
        Col::ReduceTasks,
    ];

    /// The column's name in query text.
    pub const fn name(self) -> &'static str {
        match self {
            Col::Id => "id",
            Col::Submit => "submit",
            Col::Duration => "duration",
            Col::Input => "input",
            Col::Shuffle => "shuffle",
            Col::Output => "output",
            Col::MapTime => "map_time",
            Col::ReduceTime => "reduce_time",
            Col::MapTasks => "map_tasks",
            Col::ReduceTasks => "reduce_tasks",
        }
    }

    /// Index of the column in a [`ZoneMap`]'s `min`/`max` arrays.
    pub const fn zone_index(self) -> usize {
        match self {
            Col::Id => 0,
            Col::Submit => 1,
            Col::Duration => 2,
            Col::Input => 3,
            Col::Shuffle => 4,
            Col::Output => 5,
            Col::MapTime => 6,
            Col::ReduceTime => 7,
            Col::MapTasks => 8,
            Col::ReduceTasks => 9,
        }
    }

    /// The column's decoded values within one chunk (empty if the chunk
    /// was decoded without it).
    pub fn slice<'a>(self, cols: ChunkView<'a>) -> &'a [u64] {
        cols.column(self.zone_index())
    }
}

impl fmt::Display for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar expression over one job's numeric columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A raw column.
    Col(Col),
    /// A literal.
    Lit(u64),
    /// Saturating addition.
    Add(Box<Expr>, Box<Expr>),
    /// Saturating subtraction (floors at zero).
    Sub(Box<Expr>, Box<Expr>),
    /// Saturating multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division; `x / 0` is defined as `0`.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor: a raw column.
    pub fn col(c: Col) -> Expr {
        Expr::Col(c)
    }

    /// `input + shuffle + output` — the paper's "bytes moved" per job.
    pub fn total_io() -> Expr {
        Expr::Add(
            Box::new(Expr::Add(
                Box::new(Expr::Col(Col::Input)),
                Box::new(Expr::Col(Col::Shuffle)),
            )),
            Box::new(Expr::Col(Col::Output)),
        )
    }

    /// `map_time + reduce_time` — total slot-seconds per job.
    pub fn total_task_time() -> Expr {
        Expr::Add(
            Box::new(Expr::Col(Col::MapTime)),
            Box::new(Expr::Col(Col::ReduceTime)),
        )
    }

    /// `map_tasks + reduce_tasks`.
    pub fn total_tasks() -> Expr {
        Expr::Add(
            Box::new(Expr::Col(Col::MapTasks)),
            Box::new(Expr::Col(Col::ReduceTasks)),
        )
    }

    /// `submit / 3600` — the Fig. 7 hourly bucket key.
    pub fn submit_hour() -> Expr {
        Expr::Div(Box::new(Expr::Col(Col::Submit)), Box::new(Expr::Lit(3600)))
    }

    /// Conservative `[lo, hi]` bounds of this expression over every job
    /// in a chunk with the given zone map. Sound for pruning: the actual
    /// value of the expression on any job in the chunk lies within.
    pub fn bounds(&self, zone: &ZoneMap) -> (u64, u64) {
        match self {
            Expr::Col(c) => (zone.min[c.zone_index()], zone.max[c.zone_index()]),
            Expr::Lit(v) => (*v, *v),
            Expr::Add(a, b) => {
                let ((la, ha), (lb, hb)) = (a.bounds(zone), b.bounds(zone));
                (la.saturating_add(lb), ha.saturating_add(hb))
            }
            Expr::Sub(a, b) => {
                let ((la, ha), (lb, hb)) = (a.bounds(zone), b.bounds(zone));
                (la.saturating_sub(hb), ha.saturating_sub(lb))
            }
            Expr::Mul(a, b) => {
                let ((la, ha), (lb, hb)) = (a.bounds(zone), b.bounds(zone));
                (la.saturating_mul(lb), ha.saturating_mul(hb))
            }
            Expr::Div(a, b) => {
                let ((la, ha), (lb, hb)) = (a.bounds(zone), b.bounds(zone));
                // x / 0 == 0 by definition, so a zero divisor anywhere in
                // range pulls the low bound to 0; a divisor that is zero
                // everywhere pins both bounds there.
                let lo = if lb == 0 {
                    0
                } else {
                    la.checked_div(hb).unwrap_or(0)
                };
                let hi = if hb == 0 { 0 } else { ha / lb.max(1) };
                (lo, hi)
            }
        }
    }

    fn fmt_child(child: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match child {
            Expr::Col(_) | Expr::Lit(_) => write!(f, "{child}"),
            _ => write!(f, "({child})"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Derived columns print by name, so `sum(total_io)` stays
        // readable in headers instead of expanding to its tree.
        for (derived, name) in [
            (Expr::total_io(), "total_io"),
            (Expr::total_task_time(), "total_task_time"),
            (Expr::total_tasks(), "total_tasks"),
        ] {
            if *self == derived {
                return f.write_str(name);
            }
        }
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                Expr::fmt_child(a, f)?;
                let op = match self {
                    Expr::Add(..) => '+',
                    Expr::Sub(..) => '-',
                    Expr::Mul(..) => '*',
                    _ => '/',
                };
                write!(f, "{op}")?;
                Expr::fmt_child(b, f)
            }
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Apply to one pair of values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    const fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Three-valued zone-map verdict for a predicate over one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// No job in the chunk can match: skip the chunk without reading it.
    Never,
    /// Some jobs may match: read the chunk and filter rows.
    Maybe,
    /// Every job in the chunk matches: read the chunk, skip the filter.
    Always,
}

impl Tri {
    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Never, _) | (_, Tri::Never) => Tri::Never,
            (Tri::Always, Tri::Always) => Tri::Always,
            _ => Tri::Maybe,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Always, _) | (_, Tri::Always) => Tri::Always,
            (Tri::Never, Tri::Never) => Tri::Never,
            _ => Tri::Maybe,
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::Never => Tri::Always,
            Tri::Maybe => Tri::Maybe,
            Tri::Always => Tri::Never,
        }
    }
}

/// A row predicate: comparisons combined with boolean operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Matches every row (the empty `--where`).
    True,
    /// `lhs op rhs`.
    Cmp(Expr, CmpOp, Expr),
    /// Both must match.
    And(Box<Pred>, Box<Pred>),
    /// Either must match.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Convenience constructor: `col op literal`.
    pub fn cmp(col: Col, op: CmpOp, lit: u64) -> Pred {
        Pred::Cmp(Expr::Col(col), op, Expr::Lit(lit))
    }

    /// `a and b`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// `a or b`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// `submit in [from, to)`: `from` inclusive, `to` exclusive, so
    /// adjacent windows partition a trace and `from >= to` matches
    /// nothing. Zone maps skip the chunks outside the window.
    #[cfg(test)]
    pub(crate) fn submit_range(from: u64, to: u64) -> Pred {
        Pred::cmp(Col::Submit, CmpOp::Ge, from).and(Pred::cmp(Col::Submit, CmpOp::Lt, to))
    }

    /// Zone-map verdict for one chunk, from interval analysis of both
    /// comparison sides. [`Tri::Never`] and [`Tri::Always`] are sound:
    /// they hold for *every* job the chunk can contain.
    pub fn zone_verdict(&self, zone: &ZoneMap) -> Tri {
        match self {
            Pred::True => Tri::Always,
            Pred::Cmp(a, op, b) => {
                let ((la, ha), (lb, hb)) = (a.bounds(zone), b.bounds(zone));
                match op {
                    CmpOp::Lt => cmp_tri(ha < lb, la >= hb),
                    CmpOp::Le => cmp_tri(ha <= lb, la > hb),
                    CmpOp::Gt => cmp_tri(la > hb, ha <= lb),
                    CmpOp::Ge => cmp_tri(la >= hb, ha < lb),
                    CmpOp::Eq => cmp_tri(la == ha && lb == hb && la == lb, ha < lb || la > hb),
                    // Ne is the negation of Eq's verdict: disjoint ranges
                    // mean every row differs (Always), a shared singleton
                    // means none does (Never).
                    CmpOp::Ne => {
                        cmp_tri(la == ha && lb == hb && la == lb, ha < lb || la > hb).not()
                    }
                }
            }
            Pred::And(a, b) => a.zone_verdict(zone).and(b.zone_verdict(zone)),
            Pred::Or(a, b) => a.zone_verdict(zone).or(b.zone_verdict(zone)),
            Pred::Not(p) => p.zone_verdict(zone).not(),
        }
    }
}

/// `(always, never)` — at most one may hold — to a [`Tri`].
fn cmp_tri(always: bool, never: bool) -> Tri {
    debug_assert!(!(always && never), "a comparison cannot be both");
    if always {
        Tri::Always
    } else if never {
        Tri::Never
    } else {
        Tri::Maybe
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Pred::And(a, b) => write!(f, "({a} and {b})"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(p) => write!(f, "not ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests as kernel;
    use crate::oracle;
    use swim_store::format::columns::ChunkColumns;

    /// Three rows; columns in layout order, id to reduce_tasks.
    fn chunk() -> ChunkColumns {
        ChunkColumns {
            rows: 3,
            cols: [
                vec![0, 1, 2],
                vec![10, 20, 30],
                vec![5, 50, 500],
                vec![100, 0, 1000],
                vec![0, 0, 7],
                vec![1, 2, 3],
                vec![9, 9, 9],
                vec![0, 1, 2],
                vec![1, 2, 3],
                vec![0, 0, 1],
            ],
        }
    }

    #[test]
    fn vectorized_eval_matches_row_eval() {
        let cols = chunk();
        let exprs = [
            Expr::total_io(),
            Expr::total_task_time(),
            Expr::submit_hour(),
            Expr::Sub(Box::new(Expr::col(Col::Duration)), Box::new(Expr::Lit(40))),
            Expr::Mul(
                Box::new(Expr::col(Col::MapTasks)),
                Box::new(Expr::Lit(u64::MAX)),
            ),
            Expr::Div(Box::new(Expr::col(Col::Input)), Box::new(Expr::Lit(0))),
        ];
        for e in &exprs {
            let v = kernel::eval(e, &cols);
            assert_eq!(v.len(), cols.len());
            for (i, &v) in v.iter().enumerate() {
                assert_eq!(v, oracle::eval_row(e, &cols, i), "{e} row {i}");
            }
        }
    }

    #[test]
    fn saturating_and_div_by_zero_semantics() {
        let cols = chunk();
        // 5 - 40 floors at 0.
        let sub = Expr::Sub(Box::new(Expr::col(Col::Duration)), Box::new(Expr::Lit(40)));
        assert_eq!(kernel::eval(&sub, &cols)[0], 0);
        // x / 0 == 0.
        let div = Expr::Div(Box::new(Expr::col(Col::Input)), Box::new(Expr::Lit(0)));
        assert_eq!(kernel::eval(&div, &cols)[2], 0);
        // 2 * u64::MAX saturates.
        let mul = Expr::Mul(
            Box::new(Expr::col(Col::MapTasks)),
            Box::new(Expr::Lit(u64::MAX)),
        );
        assert_eq!(kernel::eval(&mul, &cols)[1], u64::MAX);
    }

    fn zone() -> ZoneMap {
        let mut min = [0u64; swim_store::ZONE_COLUMNS];
        let mut max = [0u64; swim_store::ZONE_COLUMNS];
        for c in Col::ALL {
            let values = c.slice(chunk().view()).to_vec();
            min[c.zone_index()] = values.iter().copied().min().unwrap();
            max[c.zone_index()] = values.iter().copied().max().unwrap();
        }
        ZoneMap { min, max }
    }

    #[test]
    fn bounds_bracket_every_row() {
        let cols = chunk();
        let z = zone();
        let exprs = [
            Expr::total_io(),
            Expr::submit_hour(),
            Expr::Div(
                Box::new(Expr::col(Col::Input)),
                Box::new(Expr::col(Col::MapTasks)),
            ),
            Expr::Div(
                Box::new(Expr::col(Col::Input)),
                Box::new(Expr::col(Col::ReduceTasks)), // divisor range includes 0
            ),
            Expr::Sub(
                Box::new(Expr::col(Col::Duration)),
                Box::new(Expr::col(Col::Submit)),
            ),
        ];
        for e in &exprs {
            let (lo, hi) = e.bounds(&z);
            for i in 0..cols.len() {
                let v = oracle::eval_row(e, &cols, i);
                assert!(lo <= v && v <= hi, "{e}: {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn zone_verdicts_are_sound_and_tight() {
        let z = zone(); // submit in [10, 30]
        let p = Pred::cmp(Col::Submit, CmpOp::Lt, 5);
        assert_eq!(p.zone_verdict(&z), Tri::Never);
        let p = Pred::cmp(Col::Submit, CmpOp::Lt, 100);
        assert_eq!(p.zone_verdict(&z), Tri::Always);
        let p = Pred::cmp(Col::Submit, CmpOp::Lt, 25);
        assert_eq!(p.zone_verdict(&z), Tri::Maybe);
        // Ne: disjoint → Always; shared singleton → Never.
        assert_eq!(
            Pred::cmp(Col::Submit, CmpOp::Ne, 297).zone_verdict(&z),
            Tri::Always
        );
        assert_eq!(
            Pred::cmp(Col::Submit, CmpOp::Ne, 20).zone_verdict(&z),
            Tri::Maybe
        );
        assert_eq!(
            Pred::Cmp(Expr::Lit(7), CmpOp::Ne, Expr::Lit(7)).zone_verdict(&z),
            Tri::Never
        );
        // not flips Never/Always.
        assert_eq!(
            Pred::Not(Box::new(Pred::cmp(Col::Submit, CmpOp::Lt, 5))).zone_verdict(&z),
            Tri::Always
        );
        // and/or combine.
        assert_eq!(
            Pred::cmp(Col::Submit, CmpOp::Ge, 0)
                .and(Pred::cmp(Col::Duration, CmpOp::Gt, 1000))
                .zone_verdict(&z),
            Tri::Never
        );
        assert_eq!(
            Pred::cmp(Col::Submit, CmpOp::Lt, 5)
                .or(Pred::cmp(Col::Duration, CmpOp::Le, 500))
                .zone_verdict(&z),
            Tri::Always
        );
    }

    #[test]
    fn mask_matches_row_filter() {
        let cols = chunk();
        let p = Pred::cmp(Col::Input, CmpOp::Gt, 50)
            .and(Pred::cmp(Col::Duration, CmpOp::Lt, 100))
            .or(Pred::Not(Box::new(Pred::cmp(
                Col::ReduceTasks,
                CmpOp::Eq,
                0,
            ))));
        let selected = kernel::select(&p, &cols);
        for i in 0..cols.len() {
            assert_eq!(
                selected.contains(&(i as u32)),
                oracle::matches_row(&p, &cols, i),
                "row {i}"
            );
        }
        assert_eq!(selected, vec![0, 2]);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Expr::total_io().to_string(), "total_io");
        assert_eq!(Expr::total_task_time().to_string(), "total_task_time");
        assert_eq!(Expr::submit_hour().to_string(), "submit/3600");
        assert_eq!(
            Pred::submit_range(0, 60).to_string(),
            "(submit >= 0 and submit < 60)"
        );
    }
}
