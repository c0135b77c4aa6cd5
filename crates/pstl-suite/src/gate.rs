//! Acceptance gates: the checks `suite --check <name>` holds a freshly
//! written baseline to.
//!
//! A gated experiment's `check` reads its `BENCH_*.json` document as
//! parsed JSON, so the same function checks a fresh run and the
//! committed file. Every condition goes through [`Gates::gate`], which
//! prints the value next to the bound it enforces; a value the document
//! lacks fails its gate.

use std::fmt::Debug;

use serde_json::Value;

/// How a gated value must relate to its bound (`<=`, `<`, `>=`, `>`, `==`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    AtMost,
    Below,
    AtLeast,
    Above,
    Equal,
}

/// The labels of the gates that failed so far.
#[derive(Debug, Default)]
pub struct Gates(pub Vec<String>);

impl Gates {
    /// Hold `got` to `need bound` and print
    /// `gate <label>: <got> (need <op> <bound>) ok|FAIL`. A missing
    /// value on either side fails.
    pub fn gate<T: PartialOrd + Debug>(
        &mut self,
        label: &str,
        got: Option<T>,
        need: Need,
        bound: impl Into<Option<T>>,
    ) {
        let bound = bound.into();
        let ok = match (&got, &bound) {
            (Some(g), Some(b)) => [g <= b, g < b, g >= b, g > b, g == b][need as usize],
            _ => false,
        };
        let op = ["<=", "<", ">=", ">", "=="][need as usize];
        let show = |v: &Option<T>| v.as_ref().map_or("missing".into(), |v| format!("{v:?}"));
        let (got, bound) = (show(&got), show(&bound));
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("  gate {label}: {got} (need {op} {bound}) {verdict}");
        if !ok {
            self.0.push(label.to_string());
        }
    }

    /// The number at the JSON Pointer `at` of `doc`, held to `need bound`.
    pub fn num(&mut self, doc: &Value, at: &str, need: Need, bound: impl Into<Option<f64>>) {
        self.gate(at, doc.pointer(at).and_then(Value::as_f64), need, bound);
    }

    /// [`Gates::num`] for an exact unsigned integer (a 64-bit checksum
    /// keeps every digit).
    pub fn int(&mut self, doc: &Value, at: &str, need: Need, bound: impl Into<Option<u64>>) {
        self.gate(at, doc.pointer(at).and_then(Value::as_u64), need, bound);
    }

    /// The string at `at` equals `want`.
    pub fn text(&mut self, doc: &Value, at: &str, want: &str) {
        self.gate(
            at,
            doc.pointer(at).and_then(Value::as_str),
            Need::Equal,
            want,
        );
    }

    /// `field` of every element of the array at `at` equals `want`.
    pub fn list(&mut self, doc: &Value, at: &str, field: &str, want: &[&str]) {
        let got = doc.pointer(at).map(|v| labels(v, field));
        self.gate(&format!("{at}/*/{field}"), got, Need::Equal, want.to_vec());
    }
}

/// The elements of the array `v` (none if `v` is not an array).
pub fn items(v: &Value) -> &[Value] {
    v.as_array().map_or(&[], Vec::as_slice)
}

/// `field` of every element of the array `v`; a missing one reads `?`.
pub fn labels<'a>(v: &'a Value, field: &str) -> Vec<&'a str> {
    let label = |x: &'a Value| x[field].as_str().unwrap_or("?");
    items(v).iter().map(label).collect()
}

/// The first element of the array `v` whose `field` is `name`, or `Null`.
pub fn entry<'a>(v: &'a Value, field: &str, name: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    let found = items(v).iter().find(|x| x[field].as_str() == Some(name));
    found.unwrap_or(&NULL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Need::*;

    #[test]
    fn gates_compare_and_missing_values_fail() {
        let doc: Value = serde_json::from_str(r#"{"a": [{"x": 18446744073709551615}]}"#).unwrap();
        let mut g = Gates::default();
        g.gate("le", Some(2.0), AtMost, 3.0);
        g.gate("lt", Some(3.0), Below, 3.0);
        g.gate::<u64>("none", None, Equal, None);
        g.gate("nan", Some(f64::NAN), AtLeast, 1.0);
        g.int(&doc, "/a/0/x", Equal, u64::MAX);
        g.num(&doc, "/a/1/x", Above, 0.0);
        g.list(&doc, "/a", "x", &["?"]);
        assert_eq!(g.0, ["lt", "none", "nan", "/a/1/x"]);
        assert_eq!(entry(&doc["a"], "y", "z"), &Value::Null);
    }
}
