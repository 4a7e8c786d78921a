//! Ledger-side spans: recorded from the benchmark's own files, around the
//! calls into each layer. Kept in memory; written as NDJSON at exit.
//!
//! One line per span:
//! `{"id":7,"parent":3,"request":130,"layer":"engine","name":"run_batch","start_ns":…,"end_ns":…}`
//! — `parent` is `null` on a request's root span, spans of one request
//! share `request`, and times are nanoseconds since the log was created.
//! A layer's self time is its span minus the part its children cover.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`close`](SpanLog::close) and for
    /// children to name as their parent.
    pub fn open(
        &mut self,
        parent: Option<u64>,
        request: u64,
        layer: &'static str,
        name: &'static str,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let request = self.spans[parent as usize].request;
        let id = self.open(Some(parent), request, layer, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn get(&self, id: u64) -> &SpanRec {
        &self.spans[id as usize]
    }

    pub fn children(&self, id: u64) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Span duration minus the part its children cover. Children are
    /// opened and closed inside their parent and one after the other, so
    /// this never goes negative; `None` flags a log that breaks that.
    pub fn self_ns(&self, id: u64) -> Option<u64> {
        let covered: u64 = self.children(id).map(SpanRec::dur_ns).sum();
        self.get(id).dur_ns().checked_sub(covered)
    }

    /// Durations (ns) of every span named `layer/name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_server::json::Json;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_time_is_span_minus_children_and_never_negative() {
        let mut log = SpanLog::new();
        let root = log.open(None, 42, "ledger", "request");
        log.time(root, "server", "wire_parse", || spin(200));
        spin(100); // the root's own time
        log.time(root, "engine", "run_batch", || spin(300));
        log.close(root);

        let children: u64 = log.children(root).map(SpanRec::dur_ns).sum();
        let own = log.self_ns(root).expect("children nest inside the parent");
        assert_eq!(own + children, log.get(root).dur_ns());
        assert!(own >= 100_000, "root kept its own 100 us: {own}");
        for s in log.spans() {
            assert!(log.self_ns(s.id).is_some());
            assert_eq!(s.request, 42);
        }
    }

    #[test]
    fn ndjson_lines_are_json_with_the_documented_fields() {
        let mut log = SpanLog::new();
        let root = log.open(None, 7, "ledger", "request");
        log.time(root, "server", "http_parse", || ());
        log.close(root);
        let text = log.to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = Json::parse(lines[1]).unwrap();
        for field in ["id", "parent", "request", "start_ns", "end_ns"] {
            assert!(child.get(field).and_then(Json::as_u64).is_some(), "{field}");
        }
        assert_eq!(child.get("layer").and_then(Json::as_str), Some("server"));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
