//! The chunk kernel: the one per-chunk fold behind serial, parallel,
//! single-store, federated and served execution.
//!
//! A [`Program`] flattens a query's expression trees once into a node
//! list — structurally equal subexpressions share a node, so `total_io`
//! in both `--where` and `sum(…)` is computed once per chunk. A
//! [`Worker`] owns one thread's scratch and accumulated state and folds
//! any number of chunks, in four stages per chunk:
//!
//! 1. **expressions** — each arithmetic node is evaluated over the whole
//!    chunk into that node's scratch buffer (reused across chunks, always
//!    rewritten to exactly the chunk's length), in a loop picked once per
//!    node by operator and operand shape (column or buffer × literal).
//!    Saturating `+` and `-` are branch-free bit expressions that
//!    vectorize without an emulated unsigned compare, and division by a
//!    literal is one multiplication and one branch-free correction
//!    ([`div_by`]);
//! 2. **selection** — the predicate's top-level conjuncts narrow one
//!    vector of matching row indices; a chunk the planner proved matches
//!    entirely builds none and runs stages 3 and 4 over `0..n`;
//! 3. **group ids** — each selected row's key becomes a dense `u32` id
//!    through the worker's key table: a `u64`-keyed map for one key, a
//!    boxed-slice-keyed map for several, nothing for a global aggregate.
//!    A small direct-mapped memo of recently met ids ([`RECENT`]) stands
//!    in front of the table, so it is probed once per *run* of equal keys
//!    — stores are written in submit order, so submit-derived keys (hour,
//!    day, hour of day) arrive in runs thousands of rows long — and
//!    hardly at all for a small key domain. The table itself keeps std's
//!    keyed SipHash: group keys are stored data, which may be hostile,
//!    and the speed comes from not probing, not from a weaker hash;
//! 4. **aggregates** — each [`AggCol`] is updated column-at-a-time over
//!    `(rows, ids)` into state vectors indexed by group id. When a
//!    chunk's ids change at fewer than one row in [`RUN_EVERY`] — keys
//!    that arrive in runs — the rows go as `(id, len)` runs instead, and
//!    counts and `Sum`/`Avg`/`Min`/`Max` fold each run in a register and
//!    store once. Percentile samples grow into buffers from
//!    [`agg::pool`], so a warm query faults in no fresh pages for them.
//!
//! Scratch is bounded by the chunk size: one `u64` buffer per arithmetic
//! node plus the `u32` selection and id vectors, whatever the store's
//! size. Accumulated state is one entry per group per aggregate, plus
//! every sample for percentiles: one copy per input node, however many
//! ranks read it.
//!
//! Workers merge exactly and in any order ([`Worker::merge`] re-interns
//! the other side's keys and folds its states in; callers merge into the
//! first claimed worker), and
//! [`Worker::into_rows`] leaves ordering to the caller, so who folded
//! which chunk never shows in a result.

use crate::agg::{self, AggCol, Aggregate, Groups};
use crate::exec::Row;
use crate::expr::{CmpOp, Col, Expr, Pred};
use crate::plan::Query;
use std::collections::HashMap;
use swim_store::format::columns::{ChunkView, ColumnSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// One node of the flattened expression forest. Operands precede the
/// nodes that read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Col(Col),
    Lit(u64),
    /// A literal spread over the chunk: a constant group key or aggregate
    /// input, which stages 3 and 4 read as a column like any other.
    Fill(u64),
    Bin(ArithOp, usize, usize),
}

/// The predicate over node indices. Top-level `and`s are split into
/// [`Program::conjuncts`]; `And` here only occurs under `Or`/`Not`.
#[derive(Debug)]
enum Filter {
    Cmp(usize, CmpOp, usize),
    And(Box<Filter>, Box<Filter>),
    Or(Box<Filter>, Box<Filter>),
    Not(Box<Filter>),
    True,
}

/// A query compiled for the kernel; shared read-only by its workers.
#[derive(Debug)]
pub(crate) struct Program<'q> {
    query: &'q Query,
    nodes: Vec<Node>,
    /// Nodes `..filter_end` are the ones the predicate reads.
    filter_end: usize,
    /// Per node: read (transitively) by a group key or aggregate input.
    output: Vec<bool>,
    conjuncts: Vec<Filter>,
    keys: Vec<usize>,
    inputs: Vec<Option<usize>>,
    /// Per aggregate: for a percentile, the earlier percentile over the
    /// same input node whose samples it ranks.
    samples_of: Vec<Option<usize>>,
}

#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    index: HashMap<Node, usize>,
}

impl Builder {
    fn intern(&mut self, node: Node) -> usize {
        *self.index.entry(node).or_insert_with(|| {
            self.nodes.push(node);
            self.nodes.len() - 1
        })
    }

    fn expr(&mut self, expr: &Expr) -> usize {
        let (op, a, b) = match expr {
            Expr::Col(c) => return self.intern(Node::Col(*c)),
            Expr::Lit(v) => return self.intern(Node::Lit(*v)),
            Expr::Add(a, b) => (ArithOp::Add, a, b),
            Expr::Sub(a, b) => (ArithOp::Sub, a, b),
            Expr::Mul(a, b) => (ArithOp::Mul, a, b),
            Expr::Div(a, b) => (ArithOp::Div, a, b),
        };
        let (a, b) = (self.expr(a), self.expr(b));
        match (self.nodes[a], self.nodes[b]) {
            (Node::Lit(x), Node::Lit(y)) => self.intern(Node::Lit(arith(op, x, y))),
            _ => self.intern(Node::Bin(op, a, b)),
        }
    }

    /// An expression stages 3 and 4 read as a slice.
    fn column(&mut self, expr: &Expr) -> usize {
        let idx = self.expr(expr);
        match self.nodes[idx] {
            Node::Lit(v) => self.intern(Node::Fill(v)),
            _ => idx,
        }
    }

    fn filter(&mut self, pred: &Pred) -> Filter {
        match pred {
            Pred::True => Filter::True,
            Pred::Cmp(a, op, b) => Filter::Cmp(self.expr(a), *op, self.expr(b)),
            Pred::And(a, b) => Filter::And(Box::new(self.filter(a)), Box::new(self.filter(b))),
            Pred::Or(a, b) => Filter::Or(Box::new(self.filter(a)), Box::new(self.filter(b))),
            Pred::Not(p) => Filter::Not(Box::new(self.filter(p))),
        }
    }

    fn conjuncts(&mut self, pred: &Pred, out: &mut Vec<Filter>) {
        match pred {
            Pred::True => {}
            Pred::And(a, b) => {
                self.conjuncts(a, out);
                self.conjuncts(b, out);
            }
            other => out.push(self.filter(other)),
        }
    }
}

fn mark_output(nodes: &[Node], output: &mut [bool], root: usize) {
    if !std::mem::replace(&mut output[root], true) {
        if let Node::Bin(_, a, b) = nodes[root] {
            mark_output(nodes, output, a);
            mark_output(nodes, output, b);
        }
    }
}

impl<'q> Program<'q> {
    pub(crate) fn compile(query: &'q Query) -> Program<'q> {
        let mut b = Builder::default();
        let mut conjuncts = Vec::new();
        b.conjuncts(&query.predicate, &mut conjuncts);
        let filter_end = b.nodes.len();
        let keys: Vec<usize> = query.group_by.iter().map(|e| b.column(e)).collect();
        let inputs: Vec<Option<usize>> = query
            .aggregates
            .iter()
            .map(|a| a.input().map(|e| b.column(e)))
            .collect();
        let mut output = vec![false; b.nodes.len()];
        for &root in keys.iter().chain(inputs.iter().flatten()) {
            mark_output(&b.nodes, &mut output, root);
        }
        let percentile = |a: usize| matches!(query.aggregates[a], Aggregate::Percentile(..));
        let samples_of = (0..inputs.len())
            .map(|a| {
                let shares = |b: &usize| percentile(*b) && inputs[*b] == inputs[a];
                (0..a).find(shares).filter(|_| percentile(a))
            })
            .collect();
        Program {
            query,
            nodes: b.nodes,
            filter_end,
            output,
            conjuncts,
            keys,
            inputs,
            samples_of,
        }
    }

    /// The columns the query reads — one interned [`Node::Col`] each —
    /// and so all a decode has to keep for it. A bare `count` reads none.
    pub(crate) fn columns(&self) -> ColumnSet {
        self.nodes
            .iter()
            .fold(ColumnSet::EMPTY, |set, node| match node {
                Node::Col(c) => set.with(c.zone_index()),
                _ => set,
            })
    }
}

#[inline]
fn arith(op: ArithOp, x: u64, y: u64) -> u64 {
    match op {
        ArithOp::Add => saturating_add(x, y),
        ArithOp::Sub => saturating_sub(x, y),
        ArithOp::Mul => x.saturating_mul(y),
        ArithOp::Div => x.checked_div(y).unwrap_or(0),
    }
}

/// `x.saturating_add(y)` in bit operations alone. The carry out of the
/// top bit is the top bit of `(x & y) | ((x | y) & !s)`, and spread over
/// the word it forces `u64::MAX`. Baseline x86-64 has no unsigned 64-bit
/// lane compare, so a vectorized std add emulates one (sign flips, 32-bit
/// compares, shuffles); this needs only and/or and one shift a lane.
#[inline]
fn saturating_add(x: u64, y: u64) -> u64 {
    let s = x.wrapping_add(y);
    let carry = ((x & y) | ((x | y) & !s)) >> 63;
    s | carry.wrapping_neg()
}

/// `x.saturating_sub(y)` in bit operations alone: the borrow out of the
/// top bit is the top bit of `(!x & y) | (!(x ^ y) & d)`, and it clears
/// the word to 0.
#[inline]
fn saturating_sub(x: u64, y: u64) -> u64 {
    let d = x.wrapping_sub(y);
    let borrow = ((!x & y) | (!(x ^ y) & d)) >> 63;
    d & borrow.wrapping_sub(1)
}

/// A node's value over the current chunk.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Slice(&'a [u64]),
    Lit(u64),
}

impl Operand<'_> {
    #[inline]
    fn at(self, i: usize) -> u64 {
        match self {
            Operand::Slice(s) => s[i],
            Operand::Lit(v) => v,
        }
    }
}

fn operand<'a>(
    nodes: &[Node],
    bufs: &'a [Vec<u64>],
    cols: ChunkView<'a>,
    idx: usize,
) -> Operand<'a> {
    match nodes[idx] {
        Node::Col(c) => Operand::Slice(c.slice(cols)),
        Node::Lit(v) => Operand::Lit(v),
        Node::Fill(_) | Node::Bin(..) => Operand::Slice(&bufs[idx]),
    }
}

/// A key or aggregate-input node as a slice ([`Builder::column`] made
/// sure it is one).
fn column<'a>(nodes: &[Node], bufs: &'a [Vec<u64>], cols: ChunkView<'a>, idx: usize) -> &'a [u64] {
    match operand(nodes, bufs, cols, idx) {
        Operand::Slice(s) => s,
        Operand::Lit(_) => &[],
    }
}

/// `out[i] = f(a[i], b[i])` over `n` rows, the loop picked by operand
/// shape so no element pays a shape test.
fn zip_into(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    out: &mut Vec<u64>,
    f: impl Fn(u64, u64) -> u64,
) {
    out.clear();
    match (a, b) {
        (Operand::Slice(a), Operand::Slice(b)) => {
            out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)))
        }
        (Operand::Slice(a), Operand::Lit(y)) => out.extend(a.iter().map(|&x| f(x, y))),
        (Operand::Lit(x), Operand::Slice(b)) => out.extend(b.iter().map(|&y| f(x, y))),
        (Operand::Lit(x), Operand::Lit(y)) => out.resize(n, f(x, y)),
    }
}

/// `out[i] = a[i] / d` for a literal `d > 1`, by one multiplication and
/// one branch-free correction. With `m = floor(2^64 / d)`, `d·m` falls
/// short of `2^64` by `e = 2^64 mod d < d`, so `x·m / 2^64` falls short
/// of `x / d` by `x·e / (d·2^64) < x / 2^64 < 1`: `q = floor(x·m / 2^64)`
/// is the quotient or one less, and adding `(x - q·d >= d)` lands on it.
fn div_by(a: &[u64], d: u64, out: &mut Vec<u64>) {
    debug_assert!(d > 1, "2^64 / 1 does not fit the multiplier");
    let m = ((1u128 << 64) / u128::from(d)) as u64;
    out.clear();
    out.extend(a.iter().map(|&x| {
        let q = ((u128::from(x) * u128::from(m)) >> 64) as u64;
        q + u64::from(x - q * d >= d)
    }));
}

/// Narrow the selection to the rows passing `test`, branch-free. `dense`
/// means no selection exists yet and the candidates are `0..n`.
fn keep(sel: &mut Vec<u32>, dense: bool, n: usize, test: impl Fn(usize) -> bool) {
    let mut kept = 0;
    if dense {
        sel.clear();
        sel.resize(n, 0);
        for i in 0..n {
            sel[kept] = i as u32;
            kept += usize::from(test(i));
        }
    } else {
        for j in 0..sel.len() {
            let i = sel[j];
            sel[kept] = i;
            kept += usize::from(test(i as usize));
        }
    }
    sel.truncate(kept);
}

fn keep_cmp(
    a: Operand<'_>,
    b: Operand<'_>,
    sel: &mut Vec<u32>,
    dense: bool,
    n: usize,
    f: impl Fn(u64, u64) -> bool,
) {
    match (a, b) {
        (Operand::Slice(a), Operand::Slice(b)) => keep(sel, dense, n, |i| f(a[i], b[i])),
        (Operand::Slice(a), Operand::Lit(y)) => keep(sel, dense, n, |i| f(a[i], y)),
        (Operand::Lit(x), Operand::Slice(b)) => keep(sel, dense, n, |i| f(x, b[i])),
        (Operand::Lit(x), Operand::Lit(y)) => keep(sel, dense, n, |_| f(x, y)),
    }
}

impl Filter {
    /// Row-at-a-time test over evaluated operands: the general path, for
    /// conjuncts that are not a bare comparison.
    fn test(&self, vals: &[Operand<'_>], i: usize) -> bool {
        match self {
            Filter::True => true,
            Filter::Cmp(a, op, b) => op.eval(vals[*a].at(i), vals[*b].at(i)),
            Filter::And(a, b) => a.test(vals, i) && b.test(vals, i),
            Filter::Or(a, b) => a.test(vals, i) || b.test(vals, i),
            Filter::Not(p) => !p.test(vals, i),
        }
    }
}

/// Key → dense group id.
#[derive(Debug)]
enum Table {
    /// No group keys: the one group has id 0 and nothing is looked up.
    Global,
    One(HashMap<u64, u32>),
    Many(HashMap<Box<[u64]>, u32>),
}

/// Slots of the memo in front of the key table: direct-mapped by the
/// key's low bits, each holding the id last met there (`u32::MAX`, never
/// an id, while empty). A run of equal keys hits one slot, and so does a
/// small key domain scattered over the rows (task counts, hour of day);
/// keys that collide merely miss and pay the keyed probe they would have
/// paid anyway, so the memo gives hostile keys nothing.
const RECENT: usize = 256;

/// Stage 4 folds a chunk by runs of equal ids when its ids change at
/// fewer than one row in this many; at more, building the runs costs
/// more than the per-row stores it saves.
const RUN_EVERY: usize = 8;

/// The key of group `id` in the flat key vector; `None` for an empty
/// memo slot.
fn key_of(keys: &[u64], arity: usize, id: u32) -> Option<&[u64]> {
    let start = (id as usize).checked_mul(arity)?;
    keys.get(start..start.checked_add(arity)?)
}

fn next_id(groups: usize) -> u32 {
    assert!(groups < u32::MAX as usize, "group ids fit u32");
    groups as u32
}

fn intern_one(map: &mut HashMap<u64, u32>, keys: &mut Vec<u64>, key: u64) -> u32 {
    *map.entry(key).or_insert_with(|| {
        keys.push(key);
        next_id(keys.len() - 1)
    })
}

fn intern_many(map: &mut HashMap<Box<[u64]>, u32>, keys: &mut Vec<u64>, key: &[u64]) -> u32 {
    if let Some(&id) = map.get(key) {
        return id;
    }
    let id = next_id(keys.len() / key.len());
    keys.extend_from_slice(key);
    map.insert(key.into(), id);
    id
}

/// Rows whose id differs from the row before, counted branch-free.
fn changes(ids: &[u32]) -> usize {
    let next = ids.get(1..).unwrap_or_default();
    ids.iter().zip(next).map(|(a, b)| usize::from(a != b)).sum()
}

/// One thread's scratch and accumulated state for one query.
#[derive(Debug)]
pub(crate) struct Worker<'p> {
    program: &'p Program<'p>,
    /// Scratch, reused across chunks: one buffer per node (only `Bin` and
    /// `Fill` nodes ever fill theirs), the selection, the group id of
    /// each selected row, the `(id, rows)` runs of those ids when stage 4
    /// folds by run (empty when it does not), and one multi-column key.
    bufs: Vec<Vec<u64>>,
    sel: Vec<u32>,
    ids: Vec<u32>,
    runs: Vec<(u32, u32)>,
    key: Vec<u64>,
    /// Accumulated: the key table, group keys flat in id order (`arity`
    /// values each), the memo of recently met ids, rows per group, and
    /// one state column per aggregate.
    table: Table,
    keys: Vec<u64>,
    recent: Vec<u32>,
    counts: Vec<u64>,
    aggs: Vec<AggCol>,
    /// Rows decoded across folded chunks.
    pub(crate) rows_scanned: u64,
    /// Rows that passed the predicate.
    pub(crate) rows_matched: u64,
    /// Key-table lookups made (rows the memo did not answer).
    pub(crate) group_probes: u64,
}

impl<'p> Worker<'p> {
    pub(crate) fn new(program: &'p Program<'p>) -> Worker<'p> {
        let arity = program.keys.len();
        let mut worker = Worker {
            program,
            bufs: vec![Vec::new(); program.nodes.len()],
            sel: Vec::new(),
            ids: Vec::new(),
            runs: Vec::new(),
            key: vec![0; arity],
            table: match arity {
                0 => Table::Global,
                1 => Table::One(HashMap::new()),
                _ => Table::Many(HashMap::new()),
            },
            keys: Vec::new(),
            recent: vec![u32::MAX; RECENT],
            counts: Vec::new(),
            aggs: (program.query.aggregates.iter().zip(&program.samples_of))
                .map(|(agg, &of)| AggCol::new(agg, of))
                .collect(),
            rows_scanned: 0,
            rows_matched: 0,
            group_probes: 0,
        };
        // The global group exists before any row reaches it, so a global
        // aggregate over nothing still finalizes to its one row.
        worker.grow();
        worker
    }

    /// Extend the per-group state to every group the key table knows.
    fn grow(&mut self) {
        let groups = match self.table {
            Table::Global => 1,
            _ => self.keys.len() / self.program.keys.len(),
        };
        self.counts.resize(groups, 0);
        for agg in &mut self.aggs {
            agg.grow(groups);
        }
    }

    /// Fold one decoded chunk in. `full_match` skips the row filter when
    /// the planner proved the whole chunk matches.
    pub(crate) fn fold_chunk(&mut self, cols: ChunkView<'_>, full_match: bool) {
        let p = self.program;
        let n = cols.len();
        assert!(u32::try_from(n).is_ok(), "row indices fit u32");
        debug_assert!(
            (p.nodes.iter()).all(|node| !matches!(node, Node::Col(c) if c.slice(cols).len() != n)),
            "the chunk was decoded without a column of `Program::columns`"
        );
        self.rows_scanned += n as u64;
        let filtered = !full_match && !p.conjuncts.is_empty();
        if filtered {
            self.eval(cols, |idx| idx < p.filter_end);
            self.select(cols);
            if self.sel.is_empty() {
                return;
            }
        }
        self.eval(cols, |idx| {
            p.output[idx] && (!filtered || idx >= p.filter_end)
        });
        if filtered {
            let sel = std::mem::take(&mut self.sel);
            self.fold_rows(cols, sel.iter().map(|&i| i as usize), sel.len());
            self.sel = sel;
        } else {
            self.fold_rows(cols, 0..n, n);
        }
    }

    /// Stage 1 over the nodes `wanted` picks.
    fn eval(&mut self, cols: ChunkView<'_>, wanted: impl Fn(usize) -> bool) {
        let nodes = &self.program.nodes;
        let n = cols.len();
        for (idx, node) in nodes.iter().enumerate() {
            if !wanted(idx) {
                continue;
            }
            match *node {
                Node::Col(_) | Node::Lit(_) => {}
                Node::Fill(v) => {
                    self.bufs[idx].clear();
                    self.bufs[idx].resize(n, v);
                }
                Node::Bin(op, a, b) => {
                    let mut out = std::mem::take(&mut self.bufs[idx]);
                    let a = operand(nodes, &self.bufs, cols, a);
                    let b = operand(nodes, &self.bufs, cols, b);
                    // A constant `op` per call, so each loop inlines one
                    // arm of `arith`.
                    match op {
                        ArithOp::Add => {
                            zip_into(a, b, n, &mut out, |x, y| arith(ArithOp::Add, x, y))
                        }
                        ArithOp::Sub => {
                            zip_into(a, b, n, &mut out, |x, y| arith(ArithOp::Sub, x, y))
                        }
                        ArithOp::Mul => {
                            zip_into(a, b, n, &mut out, |x, y| arith(ArithOp::Mul, x, y))
                        }
                        ArithOp::Div => match (a, b) {
                            (Operand::Slice(a), Operand::Lit(d)) if d > 1 => div_by(a, d, &mut out),
                            _ => zip_into(a, b, n, &mut out, |x, y| arith(ArithOp::Div, x, y)),
                        },
                    }
                    self.bufs[idx] = out;
                }
            }
        }
    }

    /// Stage 2: `self.sel` becomes the rows every conjunct accepts.
    fn select(&mut self, cols: ChunkView<'_>) {
        let p = self.program;
        let n = cols.len();
        let sel = &mut self.sel;
        let at = |idx: usize| operand(&p.nodes, &self.bufs, cols, idx);
        let mut dense = true;
        for conjunct in &p.conjuncts {
            match *conjunct {
                Filter::Cmp(a, op, b) => {
                    let (a, b) = (at(a), at(b));
                    match op {
                        CmpOp::Lt => keep_cmp(a, b, sel, dense, n, |x, y| x < y),
                        CmpOp::Le => keep_cmp(a, b, sel, dense, n, |x, y| x <= y),
                        CmpOp::Gt => keep_cmp(a, b, sel, dense, n, |x, y| x > y),
                        CmpOp::Ge => keep_cmp(a, b, sel, dense, n, |x, y| x >= y),
                        CmpOp::Eq => keep_cmp(a, b, sel, dense, n, |x, y| x == y),
                        CmpOp::Ne => keep_cmp(a, b, sel, dense, n, |x, y| x != y),
                    }
                }
                ref general => {
                    let vals: Vec<Operand<'_>> = (0..p.filter_end).map(&at).collect();
                    keep(sel, dense, n, |i| general.test(&vals, i));
                }
            }
            dense = false;
        }
    }

    /// Stages 3 and 4 over the selected `rows` (`matched` of them).
    fn fold_rows(
        &mut self,
        cols: ChunkView<'_>,
        rows: impl Iterator<Item = usize> + Clone,
        matched: usize,
    ) {
        let p = self.program;
        self.rows_matched += matched as u64;
        let keys = &mut self.keys;
        let probes = &mut self.group_probes;
        let recent = &mut self.recent;
        let grouped = match (&mut self.table, p.keys.as_slice()) {
            (Table::One(map), &[key]) => {
                let key = column(&p.nodes, &self.bufs, cols, key);
                self.ids.clear();
                self.ids.extend(rows.clone().map(|i| {
                    let k = key[i];
                    let slot = &mut recent[k as usize % RECENT];
                    if keys.get(*slot as usize) != Some(&k) {
                        *probes += 1;
                        *slot = intern_one(map, keys, k);
                    }
                    *slot
                }));
                true
            }
            (Table::Many(map), key_nodes) => {
                let arity = key_nodes.len();
                let key_cols: Vec<&[u64]> = key_nodes
                    .iter()
                    .map(|&k| column(&p.nodes, &self.bufs, cols, k))
                    .collect();
                let key = &mut self.key;
                self.ids.clear();
                self.ids.extend(rows.clone().map(|i| {
                    let mut mix = 0usize;
                    for (slot, col) in key.iter_mut().zip(&key_cols) {
                        *slot = col[i];
                        mix = mix.wrapping_mul(31).wrapping_add(col[i] as usize);
                    }
                    let slot = &mut recent[mix % RECENT];
                    if key_of(keys, arity, *slot) != Some(key.as_slice()) {
                        *probes += 1;
                        *slot = intern_many(map, keys, key);
                    }
                    *slot
                }));
                true
            }
            _ => false,
        };
        if grouped {
            self.grow();
        }
        self.runs.clear();
        let groups = if !grouped {
            if let Some(count) = self.counts.first_mut() {
                *count += matched as u64;
            }
            Groups::Global
        } else if changes(&self.ids) * RUN_EVERY < self.ids.len() {
            let runs = self.ids.chunk_by(|a, b| a == b);
            let runs = runs.filter_map(|run| Some((*run.first()?, run.len() as u32)));
            self.runs.extend(runs);
            for &(g, len) in &self.runs {
                self.counts[g as usize] += u64::from(len);
            }
            Groups::Runs(&self.runs)
        } else {
            for &g in &self.ids {
                self.counts[g as usize] += 1;
            }
            Groups::Rows(&self.ids)
        };
        for (agg, input) in self.aggs.iter_mut().zip(&p.inputs) {
            let v = input.map_or(&[][..], |idx| column(&p.nodes, &self.bufs, cols, idx));
            agg.update(rows.clone(), groups, v);
        }
    }

    /// Merge another worker of the same program in: exact, and
    /// insensitive to which side met which groups first.
    pub(crate) fn merge(&mut self, other: Worker<'_>) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.group_probes += other.group_probes;
        let arity = self.program.keys.len();
        let remap: Vec<u32> = match &mut self.table {
            Table::Global => vec![0],
            Table::One(map) => other
                .keys
                .iter()
                .map(|&k| intern_one(map, &mut self.keys, k))
                .collect(),
            Table::Many(map) => other
                .keys
                .chunks_exact(arity)
                .map(|k| intern_many(map, &mut self.keys, k))
                .collect(),
        };
        self.grow();
        for (&g, count) in remap.iter().zip(&other.counts) {
            self.counts[g as usize] += count;
        }
        for (agg, theirs) in self.aggs.iter_mut().zip(other.aggs) {
            agg.merge(theirs, &remap);
        }
    }

    /// One finalized row per group, in no particular order.
    pub(crate) fn into_rows(mut self) -> Vec<Row> {
        let arity = self.program.keys.len();
        (0..self.counts.len())
            .map(|g| Row {
                key: self.keys[g * arity..][..arity].to_vec(),
                values: (0..self.aggs.len())
                    .map(|a| agg::finalize(&mut self.aggs, a, g, self.counts[g]))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg::AggValue;
    use crate::oracle;
    use proptest::prelude::*;
    use swim_store::format::columns::ChunkColumns;

    /// `expr` over every row of `cols`, through stage 1.
    pub(crate) fn eval(expr: &Expr, cols: &ChunkColumns) -> Vec<u64> {
        let query = Query::new().select(Aggregate::Max(expr.clone()));
        let program = Program::compile(&query);
        let mut worker = Worker::new(&program);
        worker.eval(cols.view(), |_| true);
        let input = program.inputs[0].expect("max reads its expression");
        column(&program.nodes, &worker.bufs, cols.view(), input).to_vec()
    }

    /// The rows of `cols` passing `pred`, through stages 1 and 2.
    pub(crate) fn select(pred: &Pred, cols: &ChunkColumns) -> Vec<u32> {
        let query = Query::new().filter(pred.clone()).select(Aggregate::Count);
        let program = Program::compile(&query);
        let mut worker = Worker::new(&program);
        if program.conjuncts.is_empty() {
            return (0..cols.len() as u32).collect();
        }
        worker.eval(cols.view(), |idx| idx < program.filter_end);
        worker.select(cols.view());
        worker.sel
    }

    /// Ten cells to a row. A cell in 64 is zero and one is `u64::MAX`;
    /// an eighth are small (so groups repeat and divisors hit zero) and
    /// the rest spread over every magnitude, so sums saturate in some
    /// cases and not in others.
    fn columns_from(cells: &[u64]) -> ChunkColumns {
        let mut cols = ChunkColumns::default();
        for row in cells.chunks_exact(Col::ALL.len()) {
            for (values, &cell) in cols.cols.iter_mut().zip(row) {
                values.push(match cell % 64 {
                    0 => 0,
                    1 => u64::MAX,
                    2..=9 => (cell >> 6) % 8,
                    _ => cell >> ((cell >> 6) % 64),
                });
            }
            cols.rows += 1;
        }
        cols
    }

    /// `rows` rows of small, distinct-ish values: nothing saturates, so
    /// every aggregate is sensitive to every row it reads.
    fn plain_columns(rows: u64) -> ChunkColumns {
        let mut cols = ChunkColumns::default();
        for i in 0..rows {
            for (k, values) in cols.cols.iter_mut().enumerate() {
                values.push((i * 31 + k as u64 * 17) % 1000);
            }
            cols.rows += 1;
        }
        cols
    }

    /// `cols` cut into chunks of `size` rows; chunk `k` is flagged a full
    /// match when bit `k % 8` of `full` is set.
    fn chunks_of(cols: &ChunkColumns, size: usize, full: u8) -> Vec<(ChunkColumns, bool)> {
        (0..cols.len())
            .step_by(size)
            .enumerate()
            .map(|(k, from)| {
                let to = cols.len().min(from + size);
                let chunk = ChunkColumns {
                    rows: to - from,
                    cols: cols.cols.each_ref().map(|values| values[from..to].to_vec()),
                };
                (chunk, full >> (k % 8) & 1 == 1)
            })
            .collect()
    }

    fn fold<'p>(
        program: &'p Program<'p>,
        chunks: impl IntoIterator<Item = &'p (ChunkColumns, bool)>,
    ) -> Worker<'p> {
        let mut worker = Worker::new(program);
        for (cols, full_match) in chunks {
            worker.fold_chunk(cols.view(), *full_match);
        }
        worker
    }

    fn sorted_rows(worker: Worker<'_>) -> Vec<(Vec<u64>, Vec<AggValue>)> {
        let mut rows = worker.into_rows();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        rows.into_iter().map(|r| (r.key, r.values)).collect()
    }

    fn bin(op: fn(Box<Expr>, Box<Expr>) -> Expr, a: Expr, b: Expr) -> Expr {
        op(Box::new(a), Box::new(b))
    }

    /// Up to three keys: a raw column (or, `in_runs`, a computed one of at
    /// most 16 values that arrives in runs over sorted submits), a
    /// computed one, a constant.
    fn keys(arity: usize, in_runs: bool) -> Vec<Expr> {
        let first = match in_runs {
            true => bin(Expr::Div, Expr::col(Col::Submit), Expr::Lit(1 << 60)),
            false => Expr::col(Col::MapTasks),
        };
        let all = [
            first,
            bin(Expr::Div, Expr::col(Col::Submit), Expr::Lit(3)),
            bin(Expr::Sub, Expr::Lit(9), Expr::Lit(2)),
        ];
        all.into_iter().take(arity).collect()
    }

    /// All six kinds, over inputs that saturate (`+`, `*`), divide by
    /// zero, and repeat the predicate's `total_io`.
    fn aggregates() -> Vec<Aggregate> {
        vec![
            Aggregate::Count,
            Aggregate::Sum(Expr::total_io()),
            Aggregate::Min(bin(
                Expr::Div,
                Expr::col(Col::Input),
                Expr::col(Col::ReduceTasks),
            )),
            Aggregate::Max(bin(
                Expr::Mul,
                Expr::col(Col::Duration),
                Expr::col(Col::MapTime),
            )),
            Aggregate::Avg(Expr::col(Col::Output)),
            Aggregate::Percentile(Expr::col(Col::Duration), 0.9),
        ]
    }

    fn predicate(kind: u8, threshold: u64) -> Pred {
        let io = Pred::Cmp(
            bin(Expr::Mul, Expr::total_io(), Expr::Lit(1024)),
            CmpOp::Ge,
            Expr::Lit(threshold),
        );
        match kind % 6 {
            0 => Pred::True,
            1 => io,
            2 => io.and(Pred::cmp(Col::Duration, CmpOp::Lt, threshold % 8)),
            3 => io.or(Pred::cmp(Col::ReduceTasks, CmpOp::Eq, 0)),
            4 => Pred::Not(Box::new(io)).and(Pred::cmp(Col::Shuffle, CmpOp::Ne, u64::MAX)),
            _ => Pred::Cmp(Expr::Lit(threshold), CmpOp::Gt, Expr::col(Col::Input)).and(Pred::Cmp(
                Expr::Lit(3),
                CmpOp::Le,
                Expr::Lit(threshold % 6),
            )),
        }
    }

    fn query(pred: Pred, arity: usize) -> Query {
        query_keyed(pred, keys(arity, false))
    }

    fn query_keyed(pred: Pred, keys: Vec<Expr>) -> Query {
        let mut query = Query::new().filter(pred);
        for key in keys {
            query = query.group(key);
        }
        for agg in aggregates() {
            query = query.select(agg);
        }
        query
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Half the cases sort the submits, as a store is written, and
        /// key the first group column on them, so ids arrive in runs and
        /// stage 4 folds some chunks by run and others by row.
        #[test]
        fn kernel_matches_the_row_oracle(
            cells in prop::collection::vec(any::<u64>(), 0..1200),
            arity in 0usize..4,
            in_runs in any::<bool>(),
            size_kind in 0usize..3,
            full in any::<u8>(),
            pred_kind in any::<u8>(),
            threshold in any::<u64>(),
        ) {
            let mut cols = columns_from(&cells);
            if in_runs {
                cols.cols[Col::Submit.zone_index()].sort_unstable();
            }
            let chunks = chunks_of(&cols, [1, 7, 4096][size_kind], full);
            let pred = predicate(pred_kind, threshold >> (threshold % 64));
            let query = query_keyed(pred, keys(arity, in_runs));
            let expected = oracle::run(&query, &chunks);
            let program = Program::compile(&query);

            let whole = fold(&program, &chunks);
            prop_assert_eq!(whole.rows_scanned, cols.len() as u64);
            prop_assert_eq!(
                whole.rows_matched,
                expected.iter().map(|(_, v)| match v[0] {
                    AggValue::Int(n) => n,
                    _ => 0,
                }).sum::<u64>()
            );
            prop_assert!(whole.group_probes <= whole.rows_matched);
            prop_assert_eq!(&sorted_rows(whole), &expected);

            // Two workers that split the chunks meet the groups in
            // different orders; either may absorb the other.
            let split = || {
                let evens = fold(&program, chunks.iter().step_by(2));
                let odds = fold(&program, chunks.iter().skip(1).step_by(2));
                (evens, odds)
            };
            let (mut evens, odds) = split();
            evens.merge(odds);
            prop_assert_eq!(&sorted_rows(evens), &expected);
            let (evens, mut odds) = split();
            odds.merge(evens);
            prop_assert_eq!(&sorted_rows(odds), &expected);
        }
    }

    #[test]
    fn a_short_chunk_after_a_long_one_reads_no_stale_scratch() {
        // The long chunk leaves 300 rows in every scratch buffer; the
        // short one must see exactly its own 3.
        let chunks = chunks_of(&plain_columns(303), 300, 0b10);
        assert_eq!((chunks[0].0.len(), chunks[1].0.len()), (300, 3));
        for arity in 0..4 {
            for kind in 0..6 {
                let query = query(predicate(kind, 5), arity);
                let program = Program::compile(&query);
                assert_eq!(
                    sorted_rows(fold(&program, &chunks)),
                    oracle::run(&query, &chunks),
                    "arity {arity}, predicate {}",
                    query.predicate
                );
            }
        }
    }

    #[test]
    fn a_shared_subexpression_is_one_node_and_changes_no_result() {
        // `total_io` under `--where` and under `sum`: its two additions
        // are compiled once, and the predicate adds only the multiply.
        let shared = Query::new()
            .filter(predicate(1, 4096))
            .select(Aggregate::Sum(Expr::total_io()))
            .select(Aggregate::Avg(Expr::total_io()));
        let program = Program::compile(&shared);
        let arithmetic = |p: &Program<'_>| {
            p.nodes
                .iter()
                .filter(|n| matches!(n, Node::Bin(..)))
                .count()
        };
        assert_eq!(arithmetic(&program), 3);
        assert_eq!(program.inputs[0], program.inputs[1]);
        // Evaluated once (here) ≡ evaluated at every use (the oracle).
        let chunks = chunks_of(&plain_columns(500), 64, 0b0100_0100);
        assert_eq!(
            sorted_rows(fold(&program, &chunks)),
            oracle::run(&shared, &chunks)
        );
        // Literal subtrees fold at compile time, to the same saturated value.
        let folded = Query::new().select(Aggregate::Sum(bin(
            Expr::Mul,
            Expr::Lit(u64::MAX),
            bin(Expr::Add, Expr::Lit(1), Expr::Lit(1)),
        )));
        let program = Program::compile(&folded);
        assert_eq!(arithmetic(&program), 0);
        assert!(program.nodes.contains(&Node::Fill(u64::MAX)));
    }

    #[test]
    fn percentiles_of_one_input_keep_one_copy_of_its_samples() {
        let shared = Query::new()
            .group(Expr::col(Col::MapTasks))
            .select(Aggregate::Percentile(Expr::total_io(), 0.1))
            .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.5))
            .select(Aggregate::Count)
            .select(Aggregate::Percentile(Expr::total_io(), 0.99))
            .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.5));
        let program = Program::compile(&shared);
        assert_eq!(program.samples_of, [None, None, None, Some(0), Some(1)]);
        let chunks = chunks_of(&plain_columns(500), 64, 0);
        let worker = fold(&program, &chunks);
        let copies = (worker.aggs.iter())
            .filter(|agg| matches!(agg, AggCol::Samples { .. }))
            .count();
        assert_eq!(copies, 2);
        assert_eq!(sorted_rows(worker), oracle::run(&shared, &chunks));
    }

    #[test]
    fn the_memo_probes_the_table_once_per_run_of_equal_keys() {
        let cols = ChunkColumns {
            rows: 1000,
            cols: std::array::from_fn(|_| (0..1000).collect()),
        };
        // Time-sorted submits: `submit / 100` arrives in 10 runs of 100,
        // and the memo carries across the chunk boundary at row 550.
        let hourly = Query::new()
            .group(bin(Expr::Div, Expr::col(Col::Submit), Expr::Lit(100)))
            .select(Aggregate::Count);
        let chunks = chunks_of(&cols, 550, 0xFF);
        let program = Program::compile(&hourly);
        let worker = fold(&program, &chunks);
        assert_eq!((worker.rows_matched, worker.group_probes), (1000, 10));
        // A small domain scattered over the rows probes once per key,
        // with one key column or two.
        let parity = bin(
            Expr::Sub,
            Expr::col(Col::Submit),
            bin(
                Expr::Mul,
                bin(Expr::Div, Expr::col(Col::Submit), Expr::Lit(2)),
                Expr::Lit(2),
            ),
        );
        for extra in [None, Some(Expr::Lit(1))] {
            let mut scattered = Query::new().group(parity.clone()).select(Aggregate::Count);
            scattered.group_by.extend(extra);
            let program = Program::compile(&scattered);
            assert_eq!(fold(&program, &chunks).group_probes, 2);
        }
        // Keys that share a memo slot and alternate defeat it: every row
        // probes, and the answer is still right.
        let colliding = Query::new()
            .group(bin(Expr::Mul, parity, Expr::Lit(RECENT as u64)))
            .select(Aggregate::Count);
        let program = Program::compile(&colliding);
        let worker = fold(&program, &chunks);
        assert_eq!(worker.group_probes, 1000);
        assert_eq!(
            sorted_rows(worker),
            vec![
                (vec![0], vec![AggValue::Int(500)]),
                (vec![RECENT as u64], vec![AggValue::Int(500)]),
            ]
        );
        // A global aggregate has no table to probe.
        let global = Query::new().select(Aggregate::Count);
        let program = Program::compile(&global);
        assert_eq!(fold(&program, &chunks).group_probes, 0);
    }

    #[test]
    fn workers_that_met_the_groups_in_opposite_orders_merge_alike() {
        let cols = ChunkColumns {
            rows: 6,
            cols: std::array::from_fn(|_| (0..6).collect()),
        };
        let reversed = ChunkColumns {
            rows: 6,
            cols: std::array::from_fn(|_| (0..6).rev().collect()),
        };
        let chunks = [(cols, false), (reversed, true)];
        for arity in 0..4 {
            let query = query(predicate(1, 2048), arity);
            let program = Program::compile(&query);
            let expected = oracle::run(&query, &chunks);
            let (mut up, mut down) = (fold(&program, &chunks[..1]), fold(&program, &chunks[1..]));
            if arity > 0 {
                assert_ne!(up.keys, down.keys, "ids were handed out in opposite orders");
            }
            up.merge(fold(&program, &chunks[1..]));
            down.merge(fold(&program, &chunks[..1]));
            assert_eq!(sorted_rows(up), expected, "arity {arity}");
            assert_eq!(sorted_rows(down), expected, "arity {arity}");
        }
    }

    #[test]
    fn runs_of_equal_ids_fold_once_per_run_as_rows_would() {
        // 64 rows keyed on `submit`: whether stage 4 folded by run, and
        // the rows either way against the row oracle.
        let keyed = |key: fn(u64) -> u64| (0..64).map(key).collect::<Vec<u64>>();
        let cases = [
            ("one run", keyed(|_| 5), true),
            ("alternating ids", keyed(|i| i % 2), false),
            ("7 changes, under one in eight", keyed(|i| i / 8), true),
            ("8 changes, one in eight", keyed(|i| (i + 4) / 8), false),
        ];
        for (case, submits, by_run) in cases {
            let mut cols = plain_columns(64);
            cols.cols[Col::Submit.zone_index()] = submits;
            let chunks = [(cols, true)];
            let query = query_keyed(Pred::True, vec![Expr::col(Col::Submit)]);
            let program = Program::compile(&query);
            let worker = fold(&program, &chunks);
            assert_eq!(!worker.runs.is_empty(), by_run, "{case}");
            if by_run {
                let rows: u32 = worker.runs.iter().map(|&(_, len)| len).sum();
                assert_eq!(rows, 64, "{case}: the runs cover the rows");
            }
            assert_eq!(sorted_rows(worker), oracle::run(&query, &chunks), "{case}");
        }
        // An empty selection reaches neither path, and makes no group.
        let chunks = [(plain_columns(64), false)];
        let none = Pred::cmp(Col::Input, CmpOp::Gt, u64::MAX - 1);
        let query = query_keyed(none, vec![Expr::col(Col::Submit)]);
        let program = Program::compile(&query);
        let worker = fold(&program, &chunks);
        assert!(worker.runs.is_empty());
        assert_eq!(sorted_rows(worker), oracle::run(&query, &chunks));
    }

    /// The edges of `u64` arithmetic: zero, one, and either side of the
    /// 32-bit and 63-bit boundaries and of `u64::MAX`.
    const EDGES: [u64; 10] = [
        0,
        1,
        (1 << 32) - 1,
        (1 << 32) + 1,
        (1 << 63) - 1,
        1 << 63,
        (1 << 63) + 1,
        u64::MAX - 1,
        u64::MAX,
        1 << 32,
    ];

    #[test]
    fn saturating_bit_expressions_equal_std_on_the_edge_grid() {
        for x in EDGES {
            for y in EDGES {
                assert_eq!(saturating_add(x, y), x.saturating_add(y), "{x} + {y}");
                assert_eq!(saturating_sub(x, y), x.saturating_sub(y), "{x} - {y}");
            }
        }
    }

    proptest! {
        #[test]
        fn saturating_bit_expressions_equal_std(x in any::<u64>(), y in any::<u64>(), shift in 0u32..64) {
            // Shifted operands reach every magnitude, so carries and
            // borrows out of the top bit happen in some cases and not others.
            for (x, y) in [(x, y), (x >> shift, y), (x, y >> shift)] {
                prop_assert_eq!(saturating_add(x, y), x.saturating_add(y));
                prop_assert_eq!(saturating_sub(x, y), x.saturating_sub(y));
            }
        }
    }

    #[test]
    fn division_by_a_literal_is_exact_by_multiplication() {
        let divisors = [
            2,
            3,
            7,
            24,
            3600,
            86_400,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
        ];
        let divisors = divisors
            .into_iter()
            .chain([1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX]);
        for d in divisors {
            let mut xs = vec![0, 1, d - 1, d, d.saturating_add(1), u64::MAX - 1, u64::MAX];
            xs.extend(EDGES);
            for k in [2, 3, 1000, u64::MAX / d] {
                let multiple = d.saturating_mul(k) / d * d;
                xs.extend([multiple - 1, multiple, multiple.saturating_add(1)]);
            }
            let mut out = vec![99; 3];
            div_by(&xs, d, &mut out);
            let expected: Vec<u64> = xs.iter().map(|x| x / d).collect();
            assert_eq!(out, expected, "divisor {d}");
        }
    }
}
