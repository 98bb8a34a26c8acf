//! Benchmark-side host-time spans.
//!
//! The traced pass opens a span around every loop of direct calls it makes
//! into a layer: root `workload` → `replay.<layer>` → `<layer>.<op>`. Spans
//! live in memory and are written out once, when the pass ends. A span's
//! *self time* is its duration minus the part its direct children cover — so
//! candidate scoring that runs inside `fl.aggregate` is charged to `nn.eval`,
//! not twice. Spans inside the program itself are a later change; these sit
//! entirely in the benchmark's own files.

use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` only for the root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Starts recording with the root span open.
    pub fn new(root: &str) -> Self {
        let mut r = Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        r.open(root);
        r
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, usize) {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        (out, id)
    }

    /// Closes whatever is still open (the root) and returns the spans.
    pub fn finish(mut self) -> Vec<Span> {
        while let Some(&id) = self.open.last() {
            self.close(id);
        }
        self.spans
    }

    /// `id`'s duration minus the time its direct children cover. Valid once
    /// `id` is closed.
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    /// The time `id`'s direct children cover.
    pub fn children_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns() - self.self_ns(id)
    }
}

pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// The span file: one object per span, in open order.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    // One pass over the children instead of `self_ns` per span: a traced pass
    // records several thousand spans.
    let mut self_times: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_times[p] = self_times[p].saturating_sub(s.duration_ns());
        }
    }
    Value::obj([
        ("workload", Value::Str(workload.into())),
        (
            "clock",
            Value::Str("host monotonic, ns since the traced pass began".into()),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Value::obj([
                            ("id", Value::Num(id as f64)),
                            ("name", Value::Str(s.name.clone())),
                            ("start_ns", Value::Num(s.start_ns as f64)),
                            ("end_ns", Value::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("self_ns", Value::Num(self_times[id] as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks the tree is well formed: exactly one root, it comes first, every
/// other span names an earlier parent and lies inside it.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    if spans.is_empty() {
        return Err("no spans recorded".into());
    }
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} `{}` ends before it starts", s.name));
        }
        match s.parent {
            None if id == 0 => {}
            None => return Err(format!("span {id} `{}` has no parent", s.name)),
            Some(p) if p >= id => {
                return Err(format!("span {id} `{}` names a later parent {p}", s.name))
            }
            Some(p) => {
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {id} `{}` lies outside its parent `{}`",
                        s.name, parent.name
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let spans = vec![
            Span {
                name: "workload".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "replay.fl".into(),
                start_ns: 10,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "fl.aggregate".into(),
                start_ns: 20,
                end_ns: 80,
                parent: Some(1),
            },
            Span {
                name: "nn.eval".into(),
                start_ns: 30,
                end_ns: 50,
                parent: Some(2),
            },
            Span {
                name: "nn.eval".into(),
                start_ns: 55,
                end_ns: 70,
                parent: Some(2),
            },
        ];
        check_tree(&spans).unwrap();
        assert_eq!(self_ns(&spans, 2), 60 - 35, "scoring is not fl's time");
        assert_eq!(self_ns(&spans, 1), 80 - 60);
        assert_eq!(self_ns(&spans, 0), 100 - 80);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn recorder_builds_a_well_formed_tree() {
        let mut rec = Recorder::new("workload");
        let ((), layer) = rec.scope("replay.chain", |rec| {
            for _ in 0..3 {
                rec.scope("chain.import_cold", |_| std::hint::black_box(1 + 1));
            }
        });
        assert!(rec.self_ns(layer) <= rec.spans[layer].duration_ns());
        let spans = rec.finish();
        assert_eq!(spans.len(), 5);
        check_tree(&spans).unwrap();
        assert_eq!(spans[0].parent, None);
        assert!(spans[2..].iter().all(|s| s.parent == Some(1)));
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let root = Span {
            name: "workload".into(),
            start_ns: 0,
            end_ns: 10,
            parent: None,
        };
        let orphan = Span {
            name: "x".into(),
            start_ns: 1,
            end_ns: 2,
            parent: None,
        };
        assert!(check_tree(&[root.clone(), orphan]).is_err());
        let outside = Span {
            name: "x".into(),
            start_ns: 5,
            end_ns: 20,
            parent: Some(0),
        };
        assert!(check_tree(&[root.clone(), outside]).is_err());
        let forward = Span {
            name: "x".into(),
            start_ns: 1,
            end_ns: 2,
            parent: Some(1),
        };
        assert!(check_tree(&[root, forward]).is_err());
        assert!(check_tree(&[]).is_err());
    }

    #[test]
    fn span_file_parses_back() {
        let mut rec = Recorder::new("workload");
        rec.scope("replay.nn", |_| ());
        let spans = rec.finish();
        let doc = crate::json::parse(&to_json("paper3", &spans).render()).unwrap();
        let listed = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].get("parent"), Some(&Value::Null));
        assert_eq!(listed[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
