//! The one writer of the workspace's deterministic JSON exports.
//!
//! Telemetry snapshots, Chrome traces, the CPS plan EXPLAIN, the audit
//! report, experiment records and `BENCH_*.json` artifacts are compared
//! byte for byte (golden files, committed baselines), so this module
//! owns their format rules:
//!
//! * keys come in the order the caller writes them;
//! * strings escape quotes, backslashes and control characters and keep
//!   everything else (including non-ASCII) as is;
//! * `f64` values print with exactly six fractional digits, so equal
//!   values always serialise to identical lines ([`Shortest`] prints the
//!   shortest round-trip form instead); non-finite values print `null`;
//! * a container holds one entry per line, indented by depth
//!   ([`Layout::Lines`]), or all entries on one line ([`Layout::Inline`]);
//!   an empty container is `{}` / `[]`;
//! * the indent unit is chosen per [`document`], and an already-rendered
//!   block ([`Writer::embed`]) is re-indented to the depth it lands at.

use std::fmt::Write as _;

/// The standard indent unit: two spaces per level.
pub const INDENT: &str = "  ";

/// How a container lays out its entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One entry per line, indented by depth.
    Lines,
    /// Every entry on one line, separated by `", "`.
    Inline,
}

/// A value the writer renders as one JSON scalar.
pub trait Scalar {
    /// Append the rendered value to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(u32, u64, usize, bool);

impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:.6}");
        } else {
            out.push_str("null");
        }
    }
}

/// An `f64` rendered in its shortest round-trip form (`5000000`,
/// `6000019.5`), or `null` when non-finite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shortest(pub f64);

impl Scalar for Shortest {
    fn write_to(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{}", self.0);
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// `None` renders as `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// Render one document: a top-level object with one field per line,
/// indented by `indent` per level, whose fields `fields` writes; the
/// output ends with a newline.
pub fn document(indent: &'static str, fields: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer {
        out: String::new(),
        indent,
        open: Vec::new(),
        after_key: false,
    };
    w.object(Layout::Lines, fields);
    w.out + "\n"
}

/// Streams one JSON document (see the module docs for the format).
///
/// Inside an object, write a [`key`](Writer::key) and then its value;
/// inside an array, write values directly.
pub struct Writer {
    out: String,
    indent: &'static str,
    /// Per open container: (one entry per line, no entry yet).
    open: Vec<(bool, bool)>,
    after_key: bool,
}

impl Writer {
    /// Write an object whose entries `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('{', '}'), body)
    }

    /// Write an object with one scalar entry per `(key, value)` pair.
    pub fn map<K: AsRef<str>, V: Scalar>(
        &mut self,
        layout: Layout,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        self.object(layout, |w| {
            for (key, value) in entries {
                w.field(key.as_ref(), value);
            }
        })
    }

    /// Write an array whose entries `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('[', ']'), body)
    }

    /// Write an inline array of scalars.
    pub fn list<T: Scalar>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.array(Layout::Inline, |w| {
            for item in items {
                w.value(item);
            }
        })
    }

    /// Start an object entry; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_to(&mut self.out);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Write a scalar value.
    pub fn value(&mut self, value: impl Scalar) -> &mut Self {
        self.begin_value();
        value.write_to(&mut self.out);
        self
    }

    /// Write an object entry with a scalar value.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// Write an already-rendered JSON value (such as a pretty-printed
    /// subdocument) verbatim, indenting every line after its first to
    /// the current depth.
    pub fn embed(&mut self, rendered: &str) -> &mut Self {
        self.begin_value();
        let mut lines = rendered.trim_end().lines();
        self.out.push_str(lines.next().unwrap_or_default());
        for line in lines {
            self.newline();
            self.out.push_str(line);
        }
        self
    }

    fn container(
        &mut self,
        layout: Layout,
        (open, close): (char, char),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.begin_value();
        self.out.push(open);
        self.open.push((layout == Layout::Lines, true));
        body(self);
        if let Some((true, false)) = self.open.pop() {
            self.newline();
        }
        self.out.push(close);
        self
    }

    fn begin_value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.separate();
        }
    }

    /// Separate a new entry from the previous one in the innermost
    /// container.
    fn separate(&mut self) {
        let Some((lines, empty)) = self.open.last_mut() else {
            return;
        };
        let (lines, first) = (*lines, std::mem::replace(empty, false));
        if !first {
            self.out.push(',');
        }
        if lines {
            self.newline();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str(self.indent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_nest_and_empty_containers_close_at_once() {
        let json = document(INDENT, |w| {
            w.field("n", 3u64).field("none", None::<u64>);
            w.key("lines").array(Layout::Lines, |w| {
                w.map(Layout::Inline, [("ok", true)])
                    .list(Vec::<u64>::new());
            });
            w.key("empty").object(Layout::Lines, |_| {});
            w.key("records").embed("[\n  {\n    \"x\": 7\n  }\n]\n");
        });
        let want = "{\n  \"n\": 3,\n  \"none\": null,\n  \"lines\": [\n    {\"ok\": true},\n    \
                    []\n  ],\n  \"empty\": {},\n  \"records\": [\n    {\n      \"x\": 7\n    }\n  \
                    ]\n}\n";
        assert_eq!(json, want);
    }

    #[test]
    fn scalars_are_escaped_fixed_or_shortest_and_never_bare_non_finite() {
        let json = document("", |w| {
            w.field("a\"b", "line\nbreak\t\\ \u{1} ⟨σ⟩").key("xs");
            w.list([1.0 / 3.0, f64::NAN]);
            w.key("ts")
                .list([Shortest(6000019.5), Shortest(5e6), Shortest(f64::INFINITY)]);
        });
        let want =
            "{\n\"a\\\"b\": \"line\\nbreak\\t\\\\ \\u0001 ⟨σ⟩\",\n\"xs\": [0.333333, null],\n\
                    \"ts\": [6000019.5, 5000000, null]\n}\n";
        assert_eq!(json, want);
    }
}
