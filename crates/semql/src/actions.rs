//! Flat action encoding of SemQL trees and the transition system used for
//! grammar-constrained decoding.
//!
//! The decoder (paper Section II-B1) chooses, at every step, from a set of
//! options that "dynamically changes depending on the preceding node in the
//! SemQL 2.0 tree". [`TransitionSystem`] maintains the stack of pending
//! nonterminals and exposes exactly the legal next actions; the neural
//! decoder masks its output distribution to that set.

use crate::ast::*;
use valuenet_schema::{ColumnId, TableId};
use valuenet_sql::AggFunc;

/// Productions of `Z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZRule {
    /// `intersect R R`
    Intersect,
    /// `union R R`
    Union,
    /// `except R R`
    Except,
    /// plain `R`
    Single,
}

/// Productions of `R` (which optional parts follow the Select).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RRule {
    /// `Select`
    S,
    /// `Select Filter`
    SF,
    /// `Select Order`
    SO,
    /// `Select Superlative`
    SSup,
    /// `Select Order Filter`
    SOF,
    /// `Select Superlative Filter`
    SSupF,
}

/// Productions of `Filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterRule {
    /// `and Filter Filter`
    And,
    /// `or Filter Filter`
    Or,
    /// `= A V`
    Eq,
    /// `= A R`
    EqNested,
    /// `!= A V`
    Ne,
    /// `!= A R`
    NeNested,
    /// `< A V`
    Lt,
    /// `< A R`
    LtNested,
    /// `> A V`
    Gt,
    /// `> A R`
    GtNested,
    /// `<= A V`
    Le,
    /// `<= A R`
    LeNested,
    /// `>= A V`
    Ge,
    /// `>= A R`
    GeNested,
    /// `between A V V`
    Between,
    /// `like A V`
    Like,
    /// `not_like A V`
    NotLike,
    /// `in A R`
    In,
    /// `not_in A R`
    NotIn,
}

impl FilterRule {
    /// Whether the rule's right-hand side is a nested query.
    pub fn is_nested(self) -> bool {
        matches!(
            self,
            FilterRule::EqNested
                | FilterRule::NeNested
                | FilterRule::LtNested
                | FilterRule::GtNested
                | FilterRule::LeNested
                | FilterRule::GeNested
                | FilterRule::In
                | FilterRule::NotIn
        )
    }
}

/// One decoding action: either a grammar-rule application (a "sketch"
/// action, fixed vocabulary) or a pointer selection (`C`/`T`/`V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Apply a `Z` production.
    Z(ZRule),
    /// Apply an `R` production.
    R(RRule),
    /// Apply `Select ::= [distinct] N` — the flag is `distinct`.
    SelectRule(bool),
    /// Apply `N ::= A{n}` with `n` in `1..=5`.
    N(usize),
    /// Apply `Order ::= asc|desc A` — the flag is `desc`.
    OrderRule(bool),
    /// Apply `Superlative ::= most|least V A` — the flag is `most`.
    SupRule(bool),
    /// Apply a `Filter` production.
    F(FilterRule),
    /// Apply `A ::= [agg] C T`.
    A(Option<AggFunc>),
    /// Point at schema column `C` (index into `DbSchema::columns`).
    C(usize),
    /// Point at schema table `T` (index into `DbSchema::tables`).
    T(usize),
    /// Point at value candidate `V` (index into the candidate list).
    V(usize),
}

/// Number of distinct sketch (non-pointer) actions.
pub const SKETCH_VOCAB: usize = 46;

const FILTER_RULES: [FilterRule; 19] = [
    FilterRule::And,
    FilterRule::Or,
    FilterRule::Eq,
    FilterRule::EqNested,
    FilterRule::Ne,
    FilterRule::NeNested,
    FilterRule::Lt,
    FilterRule::LtNested,
    FilterRule::Gt,
    FilterRule::GtNested,
    FilterRule::Le,
    FilterRule::LeNested,
    FilterRule::Ge,
    FilterRule::GeNested,
    FilterRule::Between,
    FilterRule::Like,
    FilterRule::NotLike,
    FilterRule::In,
    FilterRule::NotIn,
];

const AGG_OPTIONS: [Option<AggFunc>; 6] = [
    None,
    Some(AggFunc::Max),
    Some(AggFunc::Min),
    Some(AggFunc::Count),
    Some(AggFunc::Sum),
    Some(AggFunc::Avg),
];

impl Action {
    /// Dense index of a sketch action in `0..SKETCH_VOCAB`; `None` for
    /// pointer actions.
    pub fn sketch_index(&self) -> Option<usize> {
        Some(match self {
            Action::Z(r) => *r as usize,
            Action::R(r) => 4 + *r as usize,
            Action::SelectRule(d) => 10 + usize::from(*d),
            Action::N(n) => {
                debug_assert!((1..=5).contains(n));
                12 + (n - 1)
            }
            Action::OrderRule(d) => 17 + usize::from(*d),
            Action::SupRule(m) => 19 + usize::from(*m),
            Action::F(r) => 21 + *r as usize,
            Action::A(f) => {
                40 + AGG_OPTIONS.iter().position(|x| x == f).expect("agg option")
            }
            Action::C(_) | Action::T(_) | Action::V(_) => return None,
        })
    }

    /// Inverse of [`Action::sketch_index`].
    ///
    /// # Panics
    /// Panics if `idx >= SKETCH_VOCAB`.
    pub fn from_sketch_index(idx: usize) -> Action {
        match idx {
            0 => Action::Z(ZRule::Intersect),
            1 => Action::Z(ZRule::Union),
            2 => Action::Z(ZRule::Except),
            3 => Action::Z(ZRule::Single),
            4 => Action::R(RRule::S),
            5 => Action::R(RRule::SF),
            6 => Action::R(RRule::SO),
            7 => Action::R(RRule::SSup),
            8 => Action::R(RRule::SOF),
            9 => Action::R(RRule::SSupF),
            10 => Action::SelectRule(false),
            11 => Action::SelectRule(true),
            12..=16 => Action::N(idx - 11),
            17 => Action::OrderRule(false),
            18 => Action::OrderRule(true),
            19 => Action::SupRule(false),
            20 => Action::SupRule(true),
            21..=39 => Action::F(FILTER_RULES[idx - 21]),
            40..=45 => Action::A(AGG_OPTIONS[idx - 40]),
            _ => panic!("sketch index {idx} out of range"),
        }
    }
}

/// Grammar nonterminals (decoder frontier kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonTerminal {
    /// Root.
    Z,
    /// A query.
    R,
    /// Projection head.
    Select,
    /// Projection count.
    N,
    /// Sort direction.
    Order,
    /// Superlative.
    Sup,
    /// Filter tree.
    Filter,
    /// Aggregated column.
    A,
    /// Column pointer.
    C,
    /// Table pointer.
    T,
    /// Value pointer.
    V,
}

/// The transition system: a stack of pending nonterminals (with the nesting
/// depth of each `R`) that is expanded top-down, left-to-right.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    stack: Vec<(NonTerminal, usize)>,
    /// Maximum query nesting depth offered during decoding (the root query
    /// has depth 0). Limits run-away recursion when sampling.
    max_nesting: usize,
    steps: usize,
}

impl Default for TransitionSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl TransitionSystem {
    /// A fresh derivation starting at `Z`, allowing one level of nesting.
    pub fn new() -> Self {
        TransitionSystem { stack: vec![(NonTerminal::Z, 0)], max_nesting: 2, steps: 0 }
    }

    /// Overrides the maximum nesting depth.
    pub fn with_max_nesting(max_nesting: usize) -> Self {
        TransitionSystem { stack: vec![(NonTerminal::Z, 0)], max_nesting, steps: 0 }
    }

    /// The nonterminal the next action must expand, or `None` when complete.
    pub fn frontier(&self) -> Option<NonTerminal> {
        self.stack.last().map(|&(nt, _)| nt)
    }

    /// Whether the derivation is finished.
    pub fn is_complete(&self) -> bool {
        self.stack.is_empty()
    }

    /// Number of actions applied so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The sketch-action indices that are legal at the current frontier.
    /// Empty when the frontier is a pointer (`C`/`T`/`V`) or the derivation
    /// is complete.
    pub fn valid_sketch_actions(&self) -> Vec<usize> {
        let Some(&(nt, depth)) = self.stack.last() else { return Vec::new() };
        let nested_allowed = depth < self.max_nesting;
        let all: Vec<Action> = match nt {
            NonTerminal::Z => vec![
                Action::Z(ZRule::Intersect),
                Action::Z(ZRule::Union),
                Action::Z(ZRule::Except),
                Action::Z(ZRule::Single),
            ],
            NonTerminal::R => vec![
                Action::R(RRule::S),
                Action::R(RRule::SF),
                Action::R(RRule::SO),
                Action::R(RRule::SSup),
                Action::R(RRule::SOF),
                Action::R(RRule::SSupF),
            ],
            NonTerminal::Select => vec![Action::SelectRule(false), Action::SelectRule(true)],
            NonTerminal::N => (1..=5).map(Action::N).collect(),
            NonTerminal::Order => vec![Action::OrderRule(false), Action::OrderRule(true)],
            NonTerminal::Sup => vec![Action::SupRule(false), Action::SupRule(true)],
            NonTerminal::Filter => FILTER_RULES
                .iter()
                .filter(|r| nested_allowed || !r.is_nested())
                .map(|&r| Action::F(r))
                .collect(),
            NonTerminal::A => AGG_OPTIONS.iter().map(|&f| Action::A(f)).collect(),
            NonTerminal::C | NonTerminal::T | NonTerminal::V => return Vec::new(),
        };
        all.iter().filter_map(Action::sketch_index).collect()
    }

    /// Applies an action, popping the frontier and pushing its children.
    ///
    /// # Errors
    /// Returns a description when the action does not match the frontier.
    pub fn apply(&mut self, action: &Action) -> Result<(), String> {
        let Some(&(nt, depth)) = self.stack.last() else {
            return Err(format!("derivation complete, cannot apply {action:?}"));
        };
        // Children in grammar order; pushed reversed so the leftmost child
        // is expanded first.
        let children: Vec<(NonTerminal, usize)> = match (nt, action) {
            (NonTerminal::Z, Action::Z(ZRule::Single)) => vec![(NonTerminal::R, depth)],
            (NonTerminal::Z, Action::Z(_)) => {
                vec![(NonTerminal::R, depth), (NonTerminal::R, depth)]
            }
            (NonTerminal::R, Action::R(rule)) => {
                let mut c = vec![(NonTerminal::Select, depth)];
                match rule {
                    RRule::S => {}
                    RRule::SF => c.push((NonTerminal::Filter, depth)),
                    RRule::SO => c.push((NonTerminal::Order, depth)),
                    RRule::SSup => c.push((NonTerminal::Sup, depth)),
                    RRule::SOF => {
                        c.push((NonTerminal::Order, depth));
                        c.push((NonTerminal::Filter, depth));
                    }
                    RRule::SSupF => {
                        c.push((NonTerminal::Sup, depth));
                        c.push((NonTerminal::Filter, depth));
                    }
                }
                c
            }
            (NonTerminal::Select, Action::SelectRule(_)) => vec![(NonTerminal::N, depth)],
            (NonTerminal::N, Action::N(n)) if (1..=5).contains(n) => {
                vec![(NonTerminal::A, depth); *n]
            }
            (NonTerminal::Order, Action::OrderRule(_)) => vec![(NonTerminal::A, depth)],
            (NonTerminal::Sup, Action::SupRule(_)) => {
                vec![(NonTerminal::V, depth), (NonTerminal::A, depth)]
            }
            (NonTerminal::Filter, Action::F(rule)) => match rule {
                FilterRule::And | FilterRule::Or => {
                    vec![(NonTerminal::Filter, depth), (NonTerminal::Filter, depth)]
                }
                FilterRule::Between => vec![
                    (NonTerminal::A, depth),
                    (NonTerminal::V, depth),
                    (NonTerminal::V, depth),
                ],
                FilterRule::Like | FilterRule::NotLike => {
                    vec![(NonTerminal::A, depth), (NonTerminal::V, depth)]
                }
                r if r.is_nested() => {
                    vec![(NonTerminal::A, depth), (NonTerminal::R, depth + 1)]
                }
                _ => vec![(NonTerminal::A, depth), (NonTerminal::V, depth)],
            },
            (NonTerminal::A, Action::A(_)) => {
                vec![(NonTerminal::C, depth), (NonTerminal::T, depth)]
            }
            (NonTerminal::C, Action::C(_))
            | (NonTerminal::T, Action::T(_))
            | (NonTerminal::V, Action::V(_)) => Vec::new(),
            _ => return Err(format!("action {action:?} does not expand frontier {nt:?}")),
        };
        self.stack.pop();
        for child in children.into_iter().rev() {
            self.stack.push(child);
        }
        self.steps += 1;
        Ok(())
    }
}

/// Serialises a SemQL tree into its canonical pre-order action sequence.
pub fn ast_to_actions(q: &SemQl) -> Vec<Action> {
    let mut out = Vec::new();
    match q {
        SemQl::Intersect(a, b) => {
            out.push(Action::Z(ZRule::Intersect));
            emit_r(a, &mut out);
            emit_r(b, &mut out);
        }
        SemQl::Union(a, b) => {
            out.push(Action::Z(ZRule::Union));
            emit_r(a, &mut out);
            emit_r(b, &mut out);
        }
        SemQl::Except(a, b) => {
            out.push(Action::Z(ZRule::Except));
            emit_r(a, &mut out);
            emit_r(b, &mut out);
        }
        SemQl::Single(a) => {
            out.push(Action::Z(ZRule::Single));
            emit_r(a, &mut out);
        }
    }
    out
}

fn emit_r(q: &QueryR, out: &mut Vec<Action>) {
    let rule = match (&q.order, &q.superlative, &q.filter) {
        (None, None, None) => RRule::S,
        (None, None, Some(_)) => RRule::SF,
        (Some(_), None, None) => RRule::SO,
        (None, Some(_), None) => RRule::SSup,
        (Some(_), None, Some(_)) => RRule::SOF,
        (None, Some(_), Some(_)) => RRule::SSupF,
        (Some(_), Some(_), _) => {
            unreachable!("QueryR cannot have both order and superlative")
        }
    };
    out.push(Action::R(rule));
    out.push(Action::SelectRule(q.select.distinct));
    out.push(Action::N(q.select.aggs.len()));
    for a in &q.select.aggs {
        emit_agg(a, out);
    }
    if let Some(o) = &q.order {
        out.push(Action::OrderRule(o.desc));
        emit_agg(&o.agg, out);
    }
    if let Some(s) = &q.superlative {
        out.push(Action::SupRule(s.most));
        out.push(Action::V(s.limit.0));
        emit_agg(&s.agg, out);
    }
    if let Some(f) = &q.filter {
        emit_filter(f, out);
    }
}

fn emit_agg(a: &Agg, out: &mut Vec<Action>) {
    out.push(Action::A(a.func));
    out.push(Action::C(a.column.0));
    out.push(Action::T(a.table.0));
}

fn emit_filter(f: &Filter, out: &mut Vec<Action>) {
    match f {
        Filter::And(a, b) => {
            out.push(Action::F(FilterRule::And));
            emit_filter(a, out);
            emit_filter(b, out);
        }
        Filter::Or(a, b) => {
            out.push(Action::F(FilterRule::Or));
            emit_filter(a, out);
            emit_filter(b, out);
        }
        Filter::Cmp { op, agg, value } => {
            out.push(Action::F(cmp_rule(*op, false)));
            emit_agg(agg, out);
            out.push(Action::V(value.0));
        }
        Filter::CmpNested { op, agg, query } => {
            out.push(Action::F(cmp_rule(*op, true)));
            emit_agg(agg, out);
            emit_r(query, out);
        }
        Filter::Between { agg, low, high } => {
            out.push(Action::F(FilterRule::Between));
            emit_agg(agg, out);
            out.push(Action::V(low.0));
            out.push(Action::V(high.0));
        }
        Filter::Like { agg, value, negated } => {
            out.push(Action::F(if *negated { FilterRule::NotLike } else { FilterRule::Like }));
            emit_agg(agg, out);
            out.push(Action::V(value.0));
        }
        Filter::In { agg, query, negated } => {
            out.push(Action::F(if *negated { FilterRule::NotIn } else { FilterRule::In }));
            emit_agg(agg, out);
            emit_r(query, out);
        }
    }
}

fn cmp_rule(op: CmpOp, nested: bool) -> FilterRule {
    match (op, nested) {
        (CmpOp::Eq, false) => FilterRule::Eq,
        (CmpOp::Eq, true) => FilterRule::EqNested,
        (CmpOp::Ne, false) => FilterRule::Ne,
        (CmpOp::Ne, true) => FilterRule::NeNested,
        (CmpOp::Lt, false) => FilterRule::Lt,
        (CmpOp::Lt, true) => FilterRule::LtNested,
        (CmpOp::Gt, false) => FilterRule::Gt,
        (CmpOp::Gt, true) => FilterRule::GtNested,
        (CmpOp::Le, false) => FilterRule::Le,
        (CmpOp::Le, true) => FilterRule::LeNested,
        (CmpOp::Ge, false) => FilterRule::Ge,
        (CmpOp::Ge, true) => FilterRule::GeNested,
    }
}

fn rule_cmp(rule: FilterRule) -> Option<(CmpOp, bool)> {
    Some(match rule {
        FilterRule::Eq => (CmpOp::Eq, false),
        FilterRule::EqNested => (CmpOp::Eq, true),
        FilterRule::Ne => (CmpOp::Ne, false),
        FilterRule::NeNested => (CmpOp::Ne, true),
        FilterRule::Lt => (CmpOp::Lt, false),
        FilterRule::LtNested => (CmpOp::Lt, true),
        FilterRule::Gt => (CmpOp::Gt, false),
        FilterRule::GtNested => (CmpOp::Gt, true),
        FilterRule::Le => (CmpOp::Le, false),
        FilterRule::LeNested => (CmpOp::Le, true),
        FilterRule::Ge => (CmpOp::Ge, false),
        FilterRule::GeNested => (CmpOp::Ge, true),
        _ => return None,
    })
}

/// Parses a canonical action sequence back into a SemQL tree.
///
/// # Errors
/// Returns a description of the first grammar violation.
pub fn actions_to_ast(actions: &[Action]) -> Result<SemQl, String> {
    let mut pos = 0;
    let tree = parse_z(actions, &mut pos)?;
    if pos != actions.len() {
        return Err(format!("trailing actions after position {pos}"));
    }
    Ok(tree)
}

fn next<'a>(actions: &'a [Action], pos: &mut usize) -> Result<&'a Action, String> {
    let a = actions.get(*pos).ok_or("unexpected end of action sequence")?;
    *pos += 1;
    Ok(a)
}

fn parse_z(actions: &[Action], pos: &mut usize) -> Result<SemQl, String> {
    match next(actions, pos)? {
        Action::Z(ZRule::Single) => Ok(SemQl::Single(Box::new(parse_r(actions, pos)?))),
        Action::Z(rule) => {
            let a = Box::new(parse_r(actions, pos)?);
            let b = Box::new(parse_r(actions, pos)?);
            Ok(match rule {
                ZRule::Intersect => SemQl::Intersect(a, b),
                ZRule::Union => SemQl::Union(a, b),
                ZRule::Except => SemQl::Except(a, b),
                ZRule::Single => unreachable!(),
            })
        }
        other => Err(format!("expected Z action, got {other:?}")),
    }
}

fn parse_r(actions: &[Action], pos: &mut usize) -> Result<QueryR, String> {
    let rule = match next(actions, pos)? {
        Action::R(r) => *r,
        other => return Err(format!("expected R action, got {other:?}")),
    };
    let distinct = match next(actions, pos)? {
        Action::SelectRule(d) => *d,
        other => return Err(format!("expected Select action, got {other:?}")),
    };
    let n = match next(actions, pos)? {
        Action::N(n) if (1..=5).contains(n) => *n,
        other => return Err(format!("expected N action, got {other:?}")),
    };
    let mut aggs = Vec::with_capacity(n);
    for _ in 0..n {
        aggs.push(parse_agg(actions, pos)?);
    }
    let mut q = QueryR {
        select: Select { distinct, aggs },
        order: None,
        superlative: None,
        filter: None,
    };
    match rule {
        RRule::S => {}
        RRule::SF => q.filter = Some(parse_filter(actions, pos)?),
        RRule::SO => q.order = Some(parse_order(actions, pos)?),
        RRule::SSup => q.superlative = Some(parse_sup(actions, pos)?),
        RRule::SOF => {
            q.order = Some(parse_order(actions, pos)?);
            q.filter = Some(parse_filter(actions, pos)?);
        }
        RRule::SSupF => {
            q.superlative = Some(parse_sup(actions, pos)?);
            q.filter = Some(parse_filter(actions, pos)?);
        }
    }
    Ok(q)
}

fn parse_order(actions: &[Action], pos: &mut usize) -> Result<Order, String> {
    let desc = match next(actions, pos)? {
        Action::OrderRule(d) => *d,
        other => return Err(format!("expected Order action, got {other:?}")),
    };
    Ok(Order { desc, agg: parse_agg(actions, pos)? })
}

fn parse_sup(actions: &[Action], pos: &mut usize) -> Result<Superlative, String> {
    let most = match next(actions, pos)? {
        Action::SupRule(m) => *m,
        other => return Err(format!("expected Superlative action, got {other:?}")),
    };
    let limit = match next(actions, pos)? {
        Action::V(v) => ValueRef(*v),
        other => return Err(format!("expected V action, got {other:?}")),
    };
    Ok(Superlative { most, limit, agg: parse_agg(actions, pos)? })
}

fn parse_agg(actions: &[Action], pos: &mut usize) -> Result<Agg, String> {
    let func = match next(actions, pos)? {
        Action::A(f) => *f,
        other => return Err(format!("expected A action, got {other:?}")),
    };
    let column = match next(actions, pos)? {
        Action::C(c) => ColumnId(*c),
        other => return Err(format!("expected C action, got {other:?}")),
    };
    let table = match next(actions, pos)? {
        Action::T(t) => TableId(*t),
        other => return Err(format!("expected T action, got {other:?}")),
    };
    Ok(Agg { func, column, table })
}

fn parse_filter(actions: &[Action], pos: &mut usize) -> Result<Filter, String> {
    let rule = match next(actions, pos)? {
        Action::F(r) => *r,
        other => return Err(format!("expected Filter action, got {other:?}")),
    };
    match rule {
        FilterRule::And => Ok(Filter::And(
            Box::new(parse_filter(actions, pos)?),
            Box::new(parse_filter(actions, pos)?),
        )),
        FilterRule::Or => Ok(Filter::Or(
            Box::new(parse_filter(actions, pos)?),
            Box::new(parse_filter(actions, pos)?),
        )),
        FilterRule::Between => {
            let agg = parse_agg(actions, pos)?;
            let low = parse_value(actions, pos)?;
            let high = parse_value(actions, pos)?;
            Ok(Filter::Between { agg, low, high })
        }
        FilterRule::Like | FilterRule::NotLike => {
            let agg = parse_agg(actions, pos)?;
            let value = parse_value(actions, pos)?;
            Ok(Filter::Like { agg, value, negated: rule == FilterRule::NotLike })
        }
        FilterRule::In | FilterRule::NotIn => {
            let agg = parse_agg(actions, pos)?;
            let query = Box::new(parse_r(actions, pos)?);
            Ok(Filter::In { agg, query, negated: rule == FilterRule::NotIn })
        }
        other => {
            let (op, nested) = rule_cmp(other).expect("remaining rules are comparisons");
            let agg = parse_agg(actions, pos)?;
            if nested {
                let query = Box::new(parse_r(actions, pos)?);
                Ok(Filter::CmpNested { op, agg, query })
            } else {
                let value = parse_value(actions, pos)?;
                Ok(Filter::Cmp { op, agg, value })
            }
        }
    }
}

fn parse_value(actions: &[Action], pos: &mut usize) -> Result<ValueRef, String> {
    match next(actions, pos)? {
        Action::V(v) => Ok(ValueRef(*v)),
        other => Err(format!("expected V action, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> SemQl {
        // SELECT count(*) FROM student JOIN ... WHERE home_country = V0 AND age > V1
        let student = TableId(0);
        SemQl::Single(Box::new(QueryR {
            select: Select::new(vec![Agg::count_star(student)]),
            order: None,
            superlative: None,
            filter: Some(Filter::And(
                Box::new(Filter::Cmp {
                    op: CmpOp::Eq,
                    agg: Agg::plain(ColumnId(4), student),
                    value: ValueRef(0),
                }),
                Box::new(Filter::Cmp {
                    op: CmpOp::Gt,
                    agg: Agg::plain(ColumnId(3), student),
                    value: ValueRef(1),
                }),
            )),
        }))
    }

    #[test]
    fn sketch_index_round_trip() {
        for idx in 0..SKETCH_VOCAB {
            let a = Action::from_sketch_index(idx);
            assert_eq!(a.sketch_index(), Some(idx), "index {idx} → {a:?}");
        }
        assert_eq!(Action::C(3).sketch_index(), None);
        assert_eq!(Action::T(0).sketch_index(), None);
        assert_eq!(Action::V(1).sketch_index(), None);
    }

    #[test]
    fn ast_actions_round_trip() {
        let tree = sample_tree();
        let actions = ast_to_actions(&tree);
        let back = actions_to_ast(&actions).unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    fn action_sequence_is_grammar_valid() {
        let tree = sample_tree();
        let actions = ast_to_actions(&tree);
        let mut ts = TransitionSystem::new();
        for a in &actions {
            if let Some(idx) = a.sketch_index() {
                assert!(
                    ts.valid_sketch_actions().contains(&idx),
                    "action {a:?} not valid at frontier {:?}",
                    ts.frontier()
                );
            } else {
                assert!(matches!(
                    ts.frontier(),
                    Some(NonTerminal::C | NonTerminal::T | NonTerminal::V)
                ));
            }
            ts.apply(a).unwrap();
        }
        assert!(ts.is_complete());
        assert_eq!(ts.steps(), actions.len());
    }

    #[test]
    fn invalid_action_rejected() {
        let mut ts = TransitionSystem::new();
        // Frontier is Z; an R action must fail.
        assert!(ts.apply(&Action::R(RRule::S)).is_err());
        ts.apply(&Action::Z(ZRule::Single)).unwrap();
        assert!(ts.apply(&Action::Z(ZRule::Single)).is_err());
        assert_eq!(ts.frontier(), Some(NonTerminal::R));
    }

    #[test]
    fn nesting_limit_masks_nested_rules() {
        let mut ts = TransitionSystem::with_max_nesting(0);
        ts.apply(&Action::Z(ZRule::Single)).unwrap();
        ts.apply(&Action::R(RRule::SF)).unwrap();
        ts.apply(&Action::SelectRule(false)).unwrap();
        ts.apply(&Action::N(1)).unwrap();
        ts.apply(&Action::A(None)).unwrap();
        ts.apply(&Action::C(1)).unwrap();
        ts.apply(&Action::T(0)).unwrap();
        assert_eq!(ts.frontier(), Some(NonTerminal::Filter));
        let valid = ts.valid_sketch_actions();
        let nested_idx = Action::F(FilterRule::In).sketch_index().unwrap();
        let flat_idx = Action::F(FilterRule::Eq).sketch_index().unwrap();
        assert!(!valid.contains(&nested_idx), "nested rule offered at depth limit");
        assert!(valid.contains(&flat_idx));
    }

    #[test]
    fn superlative_with_value_round_trips() {
        // "top 3 pets by weight": Superlative(most, V0, weight)
        let pet = TableId(2);
        let tree = SemQl::Single(Box::new(QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(6), pet)]),
            order: None,
            superlative: Some(Superlative {
                most: true,
                limit: ValueRef(0),
                agg: Agg::plain(ColumnId(7), pet),
            }),
            filter: None,
        }));
        let actions = ast_to_actions(&tree);
        assert_eq!(actions_to_ast(&actions).unwrap(), tree);
        assert_eq!(tree.value_refs(), vec![ValueRef(0)]);
    }

    #[test]
    fn compound_and_nested_round_trip() {
        let t0 = TableId(0);
        let nested = QueryR {
            select: Select::new(vec![Agg::with(AggFunc::Avg, ColumnId(3), t0)]),
            order: None,
            superlative: None,
            filter: None,
        };
        let left = QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(2), t0)]),
            order: None,
            superlative: None,
            filter: Some(Filter::CmpNested {
                op: CmpOp::Gt,
                agg: Agg::plain(ColumnId(3), t0),
                query: Box::new(nested),
            }),
        };
        let right = QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(2), t0)]),
            order: None,
            superlative: None,
            filter: Some(Filter::Like {
                agg: Agg::plain(ColumnId(2), t0),
                value: ValueRef(0),
                negated: true,
            }),
        };
        let tree = SemQl::Except(Box::new(left), Box::new(right));
        let actions = ast_to_actions(&tree);
        assert_eq!(actions_to_ast(&actions).unwrap(), tree);

        // And the whole sequence must be accepted by the transition system.
        let mut ts = TransitionSystem::new();
        for a in &actions {
            ts.apply(a).unwrap();
        }
        assert!(ts.is_complete());
    }

    #[test]
    fn truncated_sequence_errors() {
        let actions = ast_to_actions(&sample_tree());
        assert!(actions_to_ast(&actions[..actions.len() - 1]).is_err());
        assert!(actions_to_ast(&actions[..1]).is_err());
        // Trailing junk must also error.
        let mut extended = actions.clone();
        extended.push(Action::V(0));
        assert!(actions_to_ast(&extended).is_err());
    }
}
