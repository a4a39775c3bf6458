//! Order statistics and the JSON writer the benchmark reports through.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `ceil(p/100 * n)` (1-based). `None` for an empty sample. The caller
/// reports `sorted.len()` next to the value — a p99 over 50 samples and a p99
/// over 500 000 are different claims.
pub fn percentile(sorted: &[u32], p: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an unsorted sample; 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A JSON value. Objects keep insertion order so the output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN/inf; a non-finite measurement is reported as
            // null rather than as an unparsable token. `{}` on f64 prints the
            // shortest string that round-trips, i.e. every measured digit.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("write to String"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), Some(50));
        assert_eq!(percentile(&sample, 99.0), Some(99));
        assert_eq!(percentile(&sample, 100.0), Some(100));
        assert_eq!(percentile(&sample, 0.0), Some(1));
        // Five samples: p50 is rank ceil(2.5) = 3, p99 is rank 5.
        let five = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 50.0), Some(30));
        assert_eq!(percentile(&five, 99.0), Some(50));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank_on_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 10.0, 9.0, 8.0, 7.0];
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[2.5], 0.1), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn json_renders_compact_and_escapes() {
        let doc = Json::obj([
            ("name", Json::str("a\"b\\c\n")),
            ("n", Json::Int(3)),
            ("x", Json::Num(1.25)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"a\"b\\c\n","n":3,"x":1.25,"nan":null,"ok":true,"none":null,"list":[1,2],"empty":{}}"#
        );
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        let x = 1.2034567890123457_f64;
        let rendered = Json::Num(x).render();
        assert_eq!(rendered.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn json_pretty_is_indented_and_ordered() {
        let doc = Json::obj([("a", Json::Int(1)), ("b", Json::Arr(vec![Json::Null]))]);
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    null\n  ]\n}"
        );
    }
}
