//! Scalar expressions: the vectorised evaluation layer under filters,
//! projections, and aggregate arguments. Expressions serialise to JSON as
//! part of physical plans (the coordinator receives "a physical query plan
//! in JSON format", paper Sec. 3.2) and include a scalar-UDF hook (Q12 and
//! TPCx-BB Q3 are "join queries with a broad set of operators, including
//! user-defined functions").

use serde::{Deserialize, Serialize};
use skyrise_data::{Batch, Column, Utf8Column, Value};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer operands promote to float).
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison producing booleans.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conjunction of sub-predicates.
    And(Vec<Expr>),
    /// Disjunction of sub-predicates.
    Or(Vec<Expr>),
    /// Negation of a boolean expression.
    Not(Box<Expr>),
    /// Arithmetic over numerics.
    Arith {
        /// Arithmetic operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Membership in a literal list (e.g. `l_shipmode IN ('MAIL','SHIP')`).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Literal membership list.
        list: Vec<Value>,
    },
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case {
        /// Boolean condition.
        when: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        otherwise: Box<Expr>,
    },
    /// Scalar UDF by registry name, applied row-wise.
    Udf {
        /// Registry name of the UDF.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// `Col` helper.
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }

    /// Integer literal.
    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Value::Int64(v))
    }

    /// Float literal.
    pub fn lit_f64(v: f64) -> Expr {
        Expr::Lit(Value::Float64(v))
    }

    /// String literal.
    pub fn lit_str(v: &str) -> Expr {
        Expr::Lit(Value::Utf8(v.to_string()))
    }

    /// Comparison builder.
    pub fn cmp(self, op: CmpOp, right: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Arithmetic builder.
    pub fn arith(self, op: ArithOp, right: Expr) -> Expr {
        Expr::Arith {
            op,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Visit this node, then its operands left to right: the order in
    /// which [`evaluate`] resolves column and UDF names.
    pub fn for_each_node(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.for_each_node(f);
                right.for_each_node(f);
            }
            Expr::And(parts) | Expr::Or(parts) | Expr::Udf { args: parts, .. } => {
                for p in parts {
                    p.for_each_node(f);
                }
            }
            Expr::Not(inner) | Expr::InList { expr: inner, .. } => inner.for_each_node(f),
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                when.for_each_node(f);
                then.for_each_node(f);
                otherwise.for_each_node(f);
            }
        }
    }
}

/// A named output expression (projection item).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedExpr {
    /// Output column name.
    pub name: String,
    /// The expression computing it.
    pub expr: Expr,
}

impl NamedExpr {
    /// Shorthand constructor.
    pub fn new(name: &str, expr: Expr) -> Self {
        NamedExpr {
            name: name.to_string(),
            expr,
        }
    }
}

/// A registered scalar UDF: rows of argument values to one output value.
pub type ScalarUdf = Rc<dyn Fn(&[Value]) -> Value>;

/// UDF registry shared by workers.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    udfs: BTreeMap<String, ScalarUdf>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a UDF under a name.
    pub fn register(&mut self, name: &str, udf: ScalarUdf) {
        self.udfs.insert(name.to_string(), udf);
    }

    /// The registry with the built-ins the paper's query suite uses.
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        // Q12's CASE logic as a UDF: 1 when the order priority is urgent
        // or high, else 0.
        reg.register(
            "is_high_priority",
            Rc::new(|args: &[Value]| {
                let hit = matches!(&args[0], Value::Utf8(s) if s == "1-URGENT" || s == "2-HIGH");
                Value::Int64(hit as i64)
            }),
        );
        reg
    }

    pub(crate) fn get(&self, name: &str) -> Option<&ScalarUdf> {
        self.udfs.get(name)
    }
}

/// Errors during expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// Referenced column is absent from the input schema.
    UnknownColumn(String),
    /// UDF name is not registered.
    UnknownUdf(String),
    /// Operand types are incompatible with the operator.
    TypeMismatch(&'static str),
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            ExprError::UnknownUdf(u) => write!(f, "unknown UDF {u}"),
            ExprError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
        }
    }
}

impl std::error::Error for ExprError {}

/// Evaluate an expression over a batch, producing one value per row.
///
/// Evaluation is total and row-wise pure (integer division promotes to
/// float instead of trapping), so [`crate::bind`] evaluates over a full
/// batch and consumes the result under a selection vector: values at
/// unselected rows are computed and discarded, never observed.
pub fn evaluate(expr: &Expr, batch: &Batch, udfs: &UdfRegistry) -> Result<Column, ExprError> {
    let n = batch.num_rows();
    match expr {
        Expr::Col(name) => batch
            .schema
            .index_of(name)
            .map(|i| batch.columns[i].clone())
            .ok_or_else(|| ExprError::UnknownColumn(name.clone())),
        Expr::Lit(v) => Ok(broadcast(v, n)),
        Expr::Cmp { op, left, right } => {
            let l = evaluate(left, batch, udfs)?;
            let r = evaluate(right, batch, udfs)?;
            compare(*op, &l, &r)
        }
        Expr::And(parts) => {
            let mut acc = vec![true; n];
            for p in parts {
                let c = evaluate(p, batch, udfs)?;
                let b = expect_bool(&c)?;
                for (a, &x) in acc.iter_mut().zip(b) {
                    *a &= x;
                }
            }
            Ok(Column::Bool(acc))
        }
        Expr::Or(parts) => {
            let mut acc = vec![false; n];
            for p in parts {
                let c = evaluate(p, batch, udfs)?;
                let b = expect_bool(&c)?;
                for (a, &x) in acc.iter_mut().zip(b) {
                    *a |= x;
                }
            }
            Ok(Column::Bool(acc))
        }
        Expr::Not(inner) => {
            let c = evaluate(inner, batch, udfs)?;
            let b = expect_bool(&c)?;
            Ok(Column::Bool(b.iter().map(|&x| !x).collect()))
        }
        Expr::Arith { op, left, right } => {
            let l = evaluate(left, batch, udfs)?;
            let r = evaluate(right, batch, udfs)?;
            arithmetic(*op, &l, &r)
        }
        Expr::InList { expr, list } => {
            let c = evaluate(expr, batch, udfs)?;
            let mut out = Vec::with_capacity(n);
            match &c {
                Column::Utf8(v) => {
                    // Membership once per dictionary entry, then by code.
                    let set: Vec<&str> = list
                        .iter()
                        .filter_map(|v| match v {
                            Value::Utf8(s) => Some(s.as_str()),
                            _ => None,
                        })
                        .collect();
                    let hit: Vec<bool> = v.dict().iter().map(|s| set.contains(&&s[..])).collect();
                    out.extend(v.codes().iter().map(|&c| hit[c as usize]));
                }
                Column::Int64(v) => {
                    let set: Vec<i64> = list
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int64(i) => Some(*i),
                            _ => None,
                        })
                        .collect();
                    for x in v {
                        out.push(set.contains(x));
                    }
                }
                _ => return Err(ExprError::TypeMismatch("IN on unsupported type")),
            }
            Ok(Column::Bool(out))
        }
        Expr::Case {
            when,
            then,
            otherwise,
        } => {
            let cond_col = evaluate(when, batch, udfs)?;
            let cond = expect_bool(&cond_col)?;
            let t = evaluate(then, batch, udfs)?;
            let o = evaluate(otherwise, batch, udfs)?;
            select(cond, &t, &o)
        }
        Expr::Udf { name, args } => {
            let udf = udfs
                .get(name)
                .ok_or_else(|| ExprError::UnknownUdf(name.clone()))?;
            let cols: Vec<Column> = args
                .iter()
                .map(|a| evaluate(a, batch, udfs))
                .collect::<Result<_, _>>()?;
            let mut row = Vec::with_capacity(cols.len());
            let vals: Vec<Value> = (0..n)
                .map(|i| {
                    row.clear();
                    row.extend(cols.iter().map(|c| c.value(i)));
                    udf(&row)
                })
                .collect();
            let kind = |v: &Value| std::mem::discriminant(v);
            match vals.first() {
                None => Ok(Column::Int64(Vec::new())),
                Some(first) if vals.iter().all(|v| kind(v) == kind(first)) => {
                    Ok(crate::operators::column_from_values(&vals))
                }
                Some(_) => Err(ExprError::TypeMismatch("UDF changed its return type")),
            }
        }
    }
}

/// Evaluate a predicate to a selection mask.
pub fn evaluate_mask(
    expr: &Expr,
    batch: &Batch,
    udfs: &UdfRegistry,
) -> Result<Vec<bool>, ExprError> {
    let c = evaluate(expr, batch, udfs)?;
    expect_bool(&c).map(<[bool]>::to_vec)
}

fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Int64(x) => Column::Int64(vec![*x; n]),
        Value::Float64(x) => Column::Float64(vec![*x; n]),
        Value::Utf8(x) => Column::Utf8(Utf8Column::new(Rc::from([x.clone()]), vec![0; n])),
        Value::Bool(x) => Column::Bool(vec![*x; n]),
    }
}

pub(crate) fn expect_bool(c: &Column) -> Result<&[bool], ExprError> {
    match c {
        Column::Bool(v) => Ok(v),
        _ => Err(ExprError::TypeMismatch("expected boolean")),
    }
}

fn compare(op: CmpOp, l: &Column, r: &Column) -> Result<Column, ExprError> {
    fn cmp_iter<T: PartialOrd>(op: CmpOp, l: &[T], r: &[T]) -> Vec<bool> {
        l.iter()
            .zip(r)
            .map(|(a, b)| match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            })
            .collect()
    }
    Ok(Column::Bool(match (l, r) {
        (Column::Int64(a), Column::Int64(b)) => cmp_iter(op, a, b),
        (Column::Float64(a), Column::Float64(b)) => cmp_iter(op, a, b),
        (Column::Utf8(a), Column::Utf8(b)) => {
            // Codes in one dictionary compare as their strings do.
            let (_, codes) = Utf8Column::unify(&[a, b]);
            cmp_iter(op, &codes[0], &codes[1])
        }
        (Column::Int64(a), Column::Float64(b)) => {
            let a: Vec<f64> = a.iter().map(|&x| x as f64).collect();
            cmp_iter(op, &a, b)
        }
        (Column::Float64(a), Column::Int64(b)) => {
            let b: Vec<f64> = b.iter().map(|&x| x as f64).collect();
            cmp_iter(op, a, &b)
        }
        _ => return Err(ExprError::TypeMismatch("incomparable columns")),
    }))
}

fn arithmetic(op: ArithOp, l: &Column, r: &Column) -> Result<Column, ExprError> {
    fn f(op: ArithOp, a: f64, b: f64) -> f64 {
        match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }
    }
    Ok(match (l, r) {
        (Column::Int64(a), Column::Int64(b)) => {
            if op == ArithOp::Div {
                Column::Float64(
                    a.iter()
                        .zip(b)
                        .map(|(&x, &y)| x as f64 / y as f64)
                        .collect(),
                )
            } else {
                Column::Int64(
                    a.iter()
                        .zip(b)
                        .map(|(&x, &y)| match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => unreachable!(),
                        })
                        .collect(),
                )
            }
        }
        (Column::Float64(a), Column::Float64(b)) => {
            Column::Float64(a.iter().zip(b).map(|(&x, &y)| f(op, x, y)).collect())
        }
        (Column::Int64(a), Column::Float64(b)) => {
            Column::Float64(a.iter().zip(b).map(|(&x, &y)| f(op, x as f64, y)).collect())
        }
        (Column::Float64(a), Column::Int64(b)) => {
            Column::Float64(a.iter().zip(b).map(|(&x, &y)| f(op, x, y as f64)).collect())
        }
        _ => return Err(ExprError::TypeMismatch("arithmetic on non-numeric")),
    })
}

fn select(cond: &[bool], t: &Column, o: &Column) -> Result<Column, ExprError> {
    fn pick<T: Copy>(cond: &[bool], a: &[T], b: &[T]) -> Vec<T> {
        let at = |(i, &c): (usize, &bool)| if c { a[i] } else { b[i] };
        cond.iter().enumerate().map(at).collect()
    }
    Ok(match (t, o) {
        (Column::Int64(a), Column::Int64(b)) => Column::Int64(pick(cond, a, b)),
        (Column::Float64(a), Column::Float64(b)) => Column::Float64(pick(cond, a, b)),
        (Column::Utf8(a), Column::Utf8(b)) => {
            let (dict, codes) = Utf8Column::unify(&[a, b]);
            Column::Utf8(Utf8Column::new(dict, pick(cond, &codes[0], &codes[1])))
        }
        _ => return Err(ExprError::TypeMismatch("CASE branches differ in type")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_data::{DataType, Field, Schema};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        Batch::new(
            schema,
            vec![
                Column::Int64(vec![1, 2, 3, 4, 5]),
                Column::Float64(vec![1.5, 2.5, 3.5, 4.5, 5.5]),
                Column::utf8(["MAIL", "SHIP", "AIR", "MAIL", "RAIL"]),
            ],
        )
    }

    fn udfs() -> UdfRegistry {
        UdfRegistry::with_builtins()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = evaluate(&Expr::col("a"), &b, &udfs()).unwrap();
        assert_eq!(c.as_i64(), &[1, 2, 3, 4, 5]);
        let l = evaluate(&Expr::lit_f64(9.0), &b, &udfs()).unwrap();
        assert_eq!(l.as_f64(), &[9.0; 5]);
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let b = batch();
        let pred = Expr::And(vec![
            Expr::col("a").cmp(CmpOp::Ge, Expr::lit_i64(2)),
            Expr::col("b").cmp(CmpOp::Lt, Expr::lit_f64(5.0)),
        ]);
        let mask = evaluate_mask(&pred, &b, &udfs()).unwrap();
        assert_eq!(mask, vec![false, true, true, true, false]);
        let neg = evaluate_mask(&Expr::Not(Box::new(pred)), &b, &udfs()).unwrap();
        assert_eq!(neg, vec![true, false, false, false, true]);
    }

    #[test]
    fn mixed_type_comparison_coerces() {
        let b = batch();
        let mask = evaluate_mask(
            &Expr::col("a").cmp(CmpOp::Gt, Expr::lit_f64(2.5)),
            &b,
            &udfs(),
        )
        .unwrap();
        assert_eq!(mask, vec![false, false, true, true, true]);
    }

    #[test]
    fn arithmetic_q6_style() {
        // l_extendedprice * l_discount
        let b = batch();
        let e = Expr::col("b").arith(ArithOp::Mul, Expr::col("a"));
        let c = evaluate(&e, &b, &udfs()).unwrap();
        assert_eq!(c.as_f64(), &[1.5, 5.0, 10.5, 18.0, 27.5]);
        let div = evaluate(
            &Expr::col("a").arith(ArithOp::Div, Expr::lit_i64(2)),
            &b,
            &udfs(),
        )
        .unwrap();
        assert_eq!(div.as_f64()[2], 1.5);
    }

    #[test]
    fn in_list_on_strings() {
        let b = batch();
        let e = Expr::InList {
            expr: Box::new(Expr::col("s")),
            list: vec![Value::Utf8("MAIL".into()), Value::Utf8("SHIP".into())],
        };
        let mask = evaluate_mask(&e, &b, &udfs()).unwrap();
        assert_eq!(mask, vec![true, true, false, true, false]);
    }

    #[test]
    fn string_compare_and_case_across_dictionaries() {
        let b = batch();
        // The literal is in no row: "AIR" < "MAIL" < "N" < "RAIL" < "SHIP".
        let lt = Expr::col("s").cmp(CmpOp::Lt, Expr::lit_str("N"));
        let mask = evaluate_mask(&lt, &b, &udfs()).unwrap();
        assert_eq!(mask, vec![true, false, true, true, false]);
        let e = Expr::Case {
            when: Box::new(Expr::col("a").cmp(CmpOp::Le, Expr::lit_i64(2))),
            then: Box::new(Expr::lit_str("zz")),
            otherwise: Box::new(Expr::col("s")),
        };
        let c = evaluate(&e, &b, &udfs()).unwrap();
        assert_eq!(c, Column::utf8(["zz", "zz", "AIR", "MAIL", "RAIL"]));
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = Expr::Case {
            when: Box::new(Expr::col("a").cmp(CmpOp::Le, Expr::lit_i64(2))),
            then: Box::new(Expr::lit_i64(1)),
            otherwise: Box::new(Expr::lit_i64(0)),
        };
        let c = evaluate(&e, &b, &udfs()).unwrap();
        assert_eq!(c.as_i64(), &[1, 1, 0, 0, 0]);
    }

    #[test]
    fn builtin_udf_high_priority() {
        let schema = Schema::new(vec![Field::new("p", DataType::Utf8)]);
        let b = Batch::new(schema, vec![Column::utf8(["1-URGENT", "5-LOW", "2-HIGH"])]);
        let e = Expr::Udf {
            name: "is_high_priority".into(),
            args: vec![Expr::col("p")],
        };
        let c = evaluate(&e, &b, &udfs()).unwrap();
        assert_eq!(c.as_i64(), &[1, 0, 1]);
    }

    #[test]
    fn errors_are_reported() {
        let b = batch();
        assert!(matches!(
            evaluate(&Expr::col("zzz"), &b, &udfs()),
            Err(ExprError::UnknownColumn(_))
        ));
        assert!(matches!(
            evaluate(
                &Expr::Udf {
                    name: "nope".into(),
                    args: vec![]
                },
                &b,
                &udfs()
            ),
            Err(ExprError::UnknownUdf(_))
        ));
        assert!(matches!(
            evaluate(
                &Expr::col("s").arith(ArithOp::Add, Expr::lit_i64(1)),
                &b,
                &udfs()
            ),
            Err(ExprError::TypeMismatch(_))
        ));
    }

    #[test]
    fn exprs_serialize_to_json() {
        let e = Expr::And(vec![
            Expr::col("x").cmp(CmpOp::Lt, Expr::lit_i64(5)),
            Expr::InList {
                expr: Box::new(Expr::col("m")),
                list: vec![Value::Utf8("MAIL".into())],
            },
        ]);
        let json = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
