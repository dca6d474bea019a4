//! Result checking against the reference executor.
//!
//! Rows are compared as multisets: both sides are sorted the same way and
//! then compared row by row, with floats equal within a relative tolerance.
//! Rounding both sides to a fixed number of significant digits (as
//! `quokka::same_result` does) is not a tolerance: two values a rounding
//! boundary apart, such as `927227.4549999996` and `927227.455`, land in
//! different buckets and read as a mismatch.

use quokka::{Batch, ScalarValue};
use std::cmp::Ordering;

/// Floats this close relative to their magnitude are equal. Different
/// summation orders (partitioning, recovery replays) move sums by far
/// less; a genuinely wrong aggregate moves them by far more.
pub const REL_TOLERANCE: f64 = 1e-9;

/// Floats this close in absolute terms are equal (sums that should cancel
/// to zero).
pub const ABS_TOLERANCE: f64 = 1e-9;

/// Whether two floats agree within the tolerances.
pub fn floats_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    (a - b).abs() <= (REL_TOLERANCE * a.abs().max(b.abs())).max(ABS_TOLERANCE)
}

/// Compare a result with the reference result; the error names the first
/// difference.
pub fn compare(actual: &Batch, expected: &Batch) -> Result<(), String> {
    if actual.num_columns() != expected.num_columns() {
        return Err(format!(
            "{} columns, reference has {}",
            actual.num_columns(),
            expected.num_columns()
        ));
    }
    if actual.num_rows() != expected.num_rows() {
        return Err(format!("{} rows, reference has {}", actual.num_rows(), expected.num_rows()));
    }
    let (actual, expected) = (sorted_rows(actual), sorted_rows(expected));
    for (index, (a, e)) in actual.iter().zip(&expected).enumerate() {
        if !rows_match(a, e) {
            return Err(format!("sorted row {index} is {a:?}, reference has {e:?}"));
        }
    }
    Ok(())
}

fn rows_match(a: &[ScalarValue], b: &[ScalarValue]) -> bool {
    a.iter().zip(b).all(|pair| match pair {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => floats_close(*x, *y),
        (x, y) => x == y,
    })
}

/// The batch's rows, sorted on the exact (non-float) columns first and the
/// float columns last, so float noise can only reorder rows that agree on
/// every exact column.
fn sorted_rows(batch: &Batch) -> Vec<Vec<ScalarValue>> {
    let mut rows: Vec<Vec<ScalarValue>> = (0..batch.num_rows()).map(|r| batch.row(r)).collect();
    let Some(first) = rows.first() else { return rows };
    let is_float = |v: &ScalarValue| matches!(v, ScalarValue::Float64(_));
    let key_order: Vec<usize> = (0..first.len())
        .filter(|&c| !is_float(&first[c]))
        .chain((0..first.len()).filter(|&c| is_float(&first[c])))
        .collect();
    rows.sort_by(|a, b| {
        key_order
            .iter()
            .map(|&c| cmp_values(&a[c], &b[c]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

fn cmp_values(a: &ScalarValue, b: &ScalarValue) -> Ordering {
    match (a, b) {
        (ScalarValue::Int64(x), ScalarValue::Int64(y)) => x.cmp(y),
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => x.total_cmp(y),
        (ScalarValue::Utf8(x), ScalarValue::Utf8(y)) => x.cmp(y),
        (ScalarValue::Bool(x), ScalarValue::Bool(y)) => x.cmp(y),
        (ScalarValue::Date(x), ScalarValue::Date(y)) => x.cmp(y),
        // A column holds one type, so values of one column never mix.
        _ => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka::{Column, DataType, Schema};

    fn batch(keys: Vec<i64>, values: Vec<f64>) -> Batch {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Float64)]);
        Batch::try_new(schema, vec![Column::Int64(keys), Column::Float64(values)]).unwrap()
    }

    #[test]
    fn rounding_boundary_pair_matches() {
        // The pair that `same_result`'s 8-significant-digit rounding splits.
        assert!(floats_close(927227.4549999996, 927227.455));
        let a = batch(vec![1], vec![927227.4549999996]);
        let b = batch(vec![1], vec![927227.455]);
        assert_eq!(compare(&a, &b), Ok(()));
        assert!(!quokka::same_result(&a, &b), "the rounding comparator splits this pair");
    }

    #[test]
    fn one_part_per_million_is_a_mismatch() {
        let v = 927227.455;
        assert!(!floats_close(v, v * (1.0 + 1e-6)));
        assert!(compare(&batch(vec![1], vec![v]), &batch(vec![1], vec![v * (1.0 + 1e-6)])).is_err());
        assert!(!floats_close(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn rows_compare_as_multisets() {
        let a = batch(vec![2, 1, 2], vec![0.5, 1.5, 0.25]);
        let b = batch(vec![1, 2, 2], vec![1.5, 0.25, 0.5]);
        assert_eq!(compare(&a, &b), Ok(()));
        let c = batch(vec![1, 2, 3], vec![1.5, 0.25, 0.5]);
        assert!(compare(&a, &c).is_err());
        assert!(compare(&a, &batch(vec![1, 2], vec![1.5, 0.5])).is_err());
    }

    #[test]
    fn exact_columns_need_exact_equality() {
        assert!(compare(&batch(vec![1], vec![0.0]), &batch(vec![2], vec![0.0])).is_err());
        assert!(floats_close(0.0, 1e-12));
        assert!(floats_close(f64::NAN, f64::NAN));
    }
}
